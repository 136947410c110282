//! The §6.3 ablation: incremental maintenance of the 2-in-1 HTab+AVL
//! structure vs rebuilding it from scratch after every cell update, plus
//! the batched insert path at the benchmark workload's size: a build over
//! 4 000 HOSP tuples, and one 5-tuple delta batch into a 1 000-tuple
//! structure.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use uniclean_core::two_in_one::TwoInOne;
use uniclean_datagen::{hosp_workload, GenParams};
use uniclean_model::{FixMark, Relation, TupleId, Value};

fn bench_structure(c: &mut Criterion) {
    let w = hosp_workload(&GenParams {
        tuples: 1000,
        master_tuples: 200,
        ..GenParams::default()
    });
    let city = w.dirty.schema().attr_id("City").unwrap();

    let mut g = c.benchmark_group("two_in_one");
    g.sample_size(10);
    g.bench_function("build_1000_tuples", |bench| {
        bench.iter(|| TwoInOne::build(black_box(&w.rules), black_box(&w.dirty)))
    });

    // 100 updates, maintained incrementally.
    g.bench_function("incremental_100_updates", |bench| {
        bench.iter(|| {
            let mut d = w.dirty.clone();
            let mut s = TwoInOne::build(&w.rules, &d);
            for i in 0..100u32 {
                let t = TupleId(i * 7 % d.len() as u32);
                let old = d.tuple(t).value(city).clone();
                d.tuple_mut(t)
                    .set(city, Value::str(format!("City{i}")), 0.0, FixMark::Reliable);
                s.on_update(&d, t, city, &old);
            }
            s
        })
    });

    // The same 100 updates, rebuilding after each — what §6.3 avoids.
    g.bench_function("rebuild_100_updates", |bench| {
        bench.iter(|| {
            let mut d = w.dirty.clone();
            let mut last = None;
            for i in 0..100u32 {
                let t = TupleId(i * 7 % d.len() as u32);
                d.tuple_mut(t)
                    .set(city, Value::str(format!("City{i}")), 0.0, FixMark::Reliable);
                last = Some(TwoInOne::build(&w.rules, &d));
            }
            last
        })
    });

    // A build is one batched insert of every tuple (17 variable CFDs).
    let large = hosp_workload(&GenParams {
        tuples: 4000,
        master_tuples: 1000,
        ..GenParams::default()
    });
    g.bench_function("build_hosp_4000", |bench| {
        bench.iter(|| TwoInOne::build(black_box(&large.rules), black_box(&large.dirty)))
    });

    // One `clean_delta`-shaped batch: clone a built structure, insert 5.
    let delta = hosp_workload(&GenParams {
        tuples: 1005,
        master_tuples: 200,
        ..GenParams::default()
    });
    let rows = delta.dirty.to_tuples();
    let mut grown = Relation::new(delta.dirty.schema().clone(), rows[..1000].to_vec());
    let built = TwoInOne::build(&delta.rules, &grown);
    for t in &rows[1000..] {
        grown.push(t.clone());
    }
    g.bench_function("insert_5_into_1000", |bench| {
        bench.iter(|| {
            let mut s = built.clone();
            s.insert_tuples(black_box(&grown), 1000);
            s
        })
    });

    g.bench_with_input(
        BenchmarkId::new("groups_below_threshold", 0.8),
        &0.8,
        |bench, bound| {
            let s = TwoInOne::build(&w.rules, &w.dirty);
            bench.iter(|| {
                (0..s.len())
                    .map(|v| s.groups_below(v, *bound).len())
                    .sum::<usize>()
            })
        },
    );
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(3));
    targets = bench_structure
}
criterion_main!(benches);
