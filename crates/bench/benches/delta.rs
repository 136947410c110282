//! The served path: 5-tuple `clean_delta` batches into a `RepairState` that
//! `begin` built over HOSP tuples — the shape of one tenant's ingest under
//! `uniclean serve`. Two sizes: 500 tuples, and 1 500, the size a served
//! tenant reaches by the end of the benchmark's serve stage. Most HOSP
//! batches carry a deterministic cascade into settled tuples; the bench
//! reports how many of the timed ones did.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use uniclean_core::{CleanConfig, Cleaner, MasterSource, Phase};
use uniclean_datagen::{hosp_workload, GenParams};
use uniclean_model::Relation;

const BATCH: usize = 5;

fn bench_delta(c: &mut Criterion) {
    let mut g = c.benchmark_group("delta");
    g.sample_size(10);
    for base_len in [500, 1500] {
        let w = hosp_workload(&GenParams {
            tuples: base_len + 400,
            master_tuples: 200,
            ..GenParams::default()
        });
        let uni = Cleaner::builder()
            .rules(w.rules.clone())
            .master(MasterSource::external(w.master.clone()))
            .config(CleanConfig::default())
            .build()
            .expect("bench session");
        let rows = w.dirty.to_tuples();
        let base = Relation::new(w.dirty.schema().clone(), rows[..base_len].to_vec());
        let (mut state, _) = uni.begin(&base, Phase::Full);
        let mut batches = rows[base_len..].chunks(BATCH).cycle();
        let (mut deltas, mut cascades) = (0usize, 0usize);
        g.bench_function(format!("hosp_{base_len}_batch_{BATCH}"), |bench| {
            bench.iter(|| {
                let settled = state.len();
                let batch = black_box(batches.next().expect("cycled"));
                let result = uni.clean_delta(&mut state, batch).expect("valid batch");
                // The call's cRepair fixes come first in its report.
                let c_fixes = result.phases[0].fixes;
                let reached = result.report.records()[..c_fixes]
                    .iter()
                    .any(|r| r.tuple.index() < settled);
                deltas += 1;
                cascades += usize::from(reached);
                result
            })
        });
        println!(
            "delta hosp_{base_len}: {cascades} of {deltas} batches cascaded into settled tuples, {} escalated",
            state.escalations()
        );
        assert!(cascades > 0, "the bench must exercise a cascade");
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(3));
    targets = bench_delta
}
criterion_main!(benches);
