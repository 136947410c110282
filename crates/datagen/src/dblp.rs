//! DBLP-like workload: bibliography records (12 attributes, 7 CFDs + 3 MDs,
//! matching the paper's rule counts).
//!
//! Entities are *papers*. `Key` and `Pages` embed the paper index and are
//! unique; `Journal` functionally determines `Publisher` and `Venue`;
//! `Year` is functional in `(Journal, Volume)` (each journal has a fixed
//! base year). MD premises always include `Key` or `Pages`, keeping them
//! entity-unique.

use std::collections::HashSet;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use uniclean_model::{Relation, Schema, Tuple, TupleId, Value};
use uniclean_rules::{parse_rules, RuleSet};

use crate::dict;
use crate::noise::{assign_confidence, corrupt};
use crate::spec::{GenParams, Workload};

/// The 12 DBLP attributes.
pub const DBLP_ATTRS: &[&str] = &[
    "Key",
    "Title",
    "Authors",
    "Journal",
    "Year",
    "Volume",
    "Number",
    "Pages",
    "Publisher",
    "Venue",
    "Type",
    "EE",
];

fn rule_text() -> String {
    let mut t = String::new();
    t.push_str("cfd d1: dblp([Key] -> [Title])\n");
    t.push_str("cfd d2: dblp([Key] -> [Authors])\n");
    t.push_str("cfd d3: dblp([Key] -> [Year])\n");
    t.push_str("cfd d4: dblp([Journal] -> [Publisher])\n");
    t.push_str("cfd d5: dblp([Journal] -> [Venue])\n");
    t.push_str("cfd d6: dblp([Journal, Volume] -> [Year])\n");
    t.push_str("cfd d7: dblp([Journal=TODS] -> [Type=article])\n");
    t.push_str(
        "md dm1: dblp[Key] = dblpm[Key] -> dblp[Title] <=> dblpm[Title], dblp[Authors] <=> dblpm[Authors]\n",
    );
    t.push_str(
        "md dm2: dblp[Title] ~lev(2) dblpm[Title] AND dblp[Pages] = dblpm[Pages] -> dblp[Authors] <=> dblpm[Authors], dblp[EE] <=> dblpm[EE]\n",
    );
    t.push_str(
        "md dm3: dblp[Title] ~lev(2) dblpm[Title] AND dblp[Journal] = dblpm[Journal] AND dblp[Pages] = dblpm[Pages] -> dblp[Key] <=> dblpm[Key]\n",
    );
    t
}

/// Rules for the similarity-heavy variant: every MD premise leads with a
/// `~jaro`/`~jw`/`~qgram`/`~lev` conjunct (no entity-unique equality), so
/// MD matching exercises exactly the predicate families that used to
/// degrade to a full master scan. Used by the access-path benchmark.
fn similarity_rule_text() -> String {
    let mut t = String::new();
    t.push_str("cfd d4: dblp([Journal] -> [Publisher])\n");
    t.push_str("cfd d5: dblp([Journal] -> [Venue])\n");
    t.push_str("md sv1: dblp[Title] ~qgram(3,0.55) dblpm[Title] -> dblp[Key] <=> dblpm[Key]\n");
    t.push_str("md sv2: dblp[Authors] ~jaro(0.88) dblpm[Authors] -> dblp[EE] <=> dblpm[EE]\n");
    t.push_str(
        "md sv3: dblp[Title] ~jw(0.9) dblpm[Title] AND dblp[Authors] ~qgram(2,0.5) dblpm[Authors] -> dblp[Journal] <=> dblpm[Journal]\n",
    );
    t.push_str("md sv4: dblp[Title] ~lev(2) dblpm[Title] -> dblp[Pages] <=> dblpm[Pages]\n");
    t
}

/// A paper's attribute bundle, functional in its index.
fn paper_row(i: usize) -> Vec<Value> {
    let j = i % dict::JOURNALS.len();
    let (journal, publisher, venue) = dict::JOURNALS[j];
    let volume = 1 + (i / dict::JOURNALS.len()) % 40;
    let year = 1960 + j + volume; // per-journal base year + volume
    let adj = dict::TITLE_ADJ[i % dict::TITLE_ADJ.len()];
    let noun = dict::TITLE_NOUN[(i / dict::TITLE_ADJ.len()) % dict::TITLE_NOUN.len()];
    let noun2 = dict::TITLE_NOUN[(i / 7) % dict::TITLE_NOUN.len()];
    let a1 = format!(
        "{} {}",
        dict::FIRST_NAMES[i % dict::FIRST_NAMES.len()],
        dict::LAST_NAMES[(i / 3) % dict::LAST_NAMES.len()]
    );
    let a2 = format!(
        "{} {}",
        dict::FIRST_NAMES[(i / 5) % dict::FIRST_NAMES.len()],
        dict::LAST_NAMES[(i / 11) % dict::LAST_NAMES.len()]
    );
    vec![
        Value::str(format!(
            "journals/{}/{}",
            journal.to_lowercase().replace(' ', ""),
            i
        )),
        Value::str(format!("{adj} {noun} for {noun2}")),
        Value::str(format!("{a1} and {a2}")),
        Value::str(journal),
        Value::str(year.to_string()),
        Value::str(volume.to_string()),
        Value::str((1 + i % 4).to_string()),
        Value::str(format!("{}-{}", 1 + 10 * i, 9 + 10 * i)),
        Value::str(publisher),
        Value::str(venue),
        Value::str("article"),
        Value::str(format!("https://doi.org/10.1000/jdq.{i}")),
    ]
}

/// Generate the DBLP workload.
pub fn dblp_workload(params: &GenParams) -> Workload {
    dblp_workload_with_rules(params, "dblp", &rule_text(), Some((7, 3)))
}

/// The similarity-heavy DBLP variant: same records and noise process, but
/// MDs whose premises are led by `~qgram`/`~jaro`/`~jw`/`~lev` conjuncts
/// instead of entity-unique equalities, so the similarity kernels and the
/// access-path planner do the work. It is the repository benchmark's `sim`
/// workload (`benchmark/`).
pub fn dblp_similarity_workload(params: &GenParams) -> Workload {
    dblp_workload_with_rules(params, "dblp-sim", &similarity_rule_text(), None)
}

fn dblp_workload_with_rules(
    params: &GenParams,
    name: &'static str,
    rules_text: &str,
    expect_counts: Option<(usize, usize)>,
) -> Workload {
    params.validate().expect("invalid generation parameters");
    let schema = Schema::of_strings("dblp", DBLP_ATTRS);
    let master_schema: Arc<Schema> = Arc::new(Schema::new(
        "dblpm",
        schema.attrs().iter().map(|a| (a.name.clone(), a.ty)),
    ));
    let parsed = parse_rules(rules_text, &schema, Some(&master_schema)).expect("DBLP rules parse");
    if let Some((cfds, mds)) = expect_counts {
        assert_eq!(parsed.cfds.len(), cfds, "paper rule count");
        assert_eq!(parsed.positive_mds.len(), mds, "paper rule count");
    }
    let rules = RuleSet::new(
        schema.clone(),
        Some(master_schema.clone()),
        parsed.cfds,
        parsed.positive_mds,
        parsed.negative_mds,
    );

    let mut rng = SmallRng::seed_from_u64(params.seed ^ 0xD8_1F);
    let m = params.master_tuples;
    let mut master = Relation::empty(master_schema);
    for i in 0..m {
        master.push(Tuple::from_values(paper_row(i), 1.0));
    }

    // Pools sized for several records per paper (bibliography records of
    // the same paper from different sources), feeding variable CFDs and
    // entropy with within-relation redundancy.
    const ROWS_PER_ENTITY: f64 = 6.0;
    let dup_pool =
        ((params.tuples as f64 * params.dup_rate / ROWS_PER_ENTITY).ceil() as usize).clamp(1, m);
    let non_master_pool =
        ((params.tuples as f64 * (1.0 - params.dup_rate) / ROWS_PER_ENTITY).ceil() as usize).max(1);
    let mut truth = Relation::empty(schema.clone());
    let mut paper_of_row: Vec<Option<usize>> = Vec::with_capacity(params.tuples);
    for _ in 0..params.tuples {
        let is_dup = rng.gen::<f64>() < params.dup_rate;
        let pidx = if is_dup {
            let p = rng.gen_range(0..dup_pool);
            paper_of_row.push(Some(p));
            p
        } else {
            paper_of_row.push(None);
            m + rng.gen_range(0..non_master_pool)
        };
        truth.push(Tuple::from_values(paper_row(pidx), 0.0));
    }

    let mut dirty = truth.clone();
    let attrs: Vec<uniclean_model::AttrId> = schema.attr_ids().collect();
    let errors = corrupt(&mut dirty, &attrs, params.noise_rate, &mut rng);
    assign_confidence(&mut dirty, &truth, params.asserted_rate, &mut rng);

    let true_matches: HashSet<(TupleId, TupleId)> = paper_of_row
        .iter()
        .enumerate()
        .filter_map(|(r, p)| p.map(|p| (TupleId::from(r), TupleId::from(p))))
        .collect();

    Workload {
        name,
        rules,
        truth,
        dirty,
        master,
        true_matches,
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> GenParams {
        GenParams {
            tuples: 300,
            master_tuples: 80,
            ..GenParams::default()
        }
    }

    #[test]
    fn workload_invariants_hold() {
        let w = dblp_workload(&small());
        w.check_invariants();
        assert_eq!(w.truth.schema().arity(), 12);
    }

    #[test]
    fn pages_are_unique_per_paper() {
        let w = dblp_workload(&small());
        let pages = w.master.schema().attr_id("Pages").unwrap();
        let keys = w.master.schema().attr_id("Key").unwrap();
        let mut seen = std::collections::HashMap::new();
        for (_, t) in w.master.iter() {
            let prev = seen.insert(t.value(pages).clone(), t.value(keys).clone());
            assert!(prev.is_none(), "duplicate pages in master");
        }
    }

    #[test]
    fn journal_determines_publisher_in_truth() {
        let w = dblp_workload(&small());
        let j = w.truth.schema().attr_id("Journal").unwrap();
        let p = w.truth.schema().attr_id("Publisher").unwrap();
        let mut map = std::collections::HashMap::new();
        for (_, t) in w.truth.iter() {
            let prev = map.insert(t.value(j).clone(), t.value(p).clone());
            if let Some(prev) = prev {
                assert_eq!(&prev, t.value(p), "Journal → Publisher must be functional");
            }
        }
    }

    #[test]
    fn determinism_and_seed_sensitivity() {
        let a = dblp_workload(&small());
        let b = dblp_workload(&small());
        let c = dblp_workload(&GenParams { seed: 7, ..small() });
        assert_eq!(a.dirty.diff_cells(&b.dirty), 0);
        assert!(a.dirty.diff_cells(&c.dirty) > 0);
    }
}
