//! Serving-side counters: per-shard queue statistics and the
//! [`PhaseObserver`] accumulator behind per-relation phase timings.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use uniclean_core::{PhaseObserver, PhaseStats};
use uniclean_model::Json;

/// Queue-depth histogram buckets: exact depths 0–3, then powers of two.
pub(crate) const BUCKET_LABELS: [&str; 8] = ["0", "1", "2", "3", "4-7", "8-15", "16-31", "32+"];

fn bucket_index(depth: usize) -> usize {
    match depth {
        0..=3 => depth,
        4..=7 => 4,
        8..=15 => 5,
        16..=31 => 6,
        _ => 7,
    }
}

/// Live counters of one shard's ingest queue. `depth` counts jobs
/// submitted but not yet completed (queued plus the one in flight); the
/// histogram records the depth observed at each enqueue.
#[derive(Default)]
pub(crate) struct ShardStats {
    pub(crate) depth: AtomicUsize,
    max_depth: AtomicUsize,
    jobs_done: AtomicU64,
    busy_rejections: AtomicU64,
    hist: [AtomicU64; BUCKET_LABELS.len()],
}

impl ShardStats {
    /// Record a successful enqueue that brought the depth to `depth`.
    pub(crate) fn record_enqueue(&self, depth: usize) {
        self.max_depth.fetch_max(depth, Ordering::Relaxed);
        self.hist[bucket_index(depth)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a `busy` rejection (queue full at submit time).
    pub(crate) fn record_busy(&self) {
        self.busy_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one completed job (worker side).
    pub(crate) fn record_done(&self) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
        self.jobs_done.fetch_add(1, Ordering::Relaxed);
    }

    /// The `stats` verb's per-shard object.
    pub(crate) fn to_json(&self, shard: usize, queue_bound: usize) -> Json {
        let hist = BUCKET_LABELS
            .iter()
            .zip(&self.hist)
            .map(|(label, n)| {
                (
                    label.to_string(),
                    Json::Num(n.load(Ordering::Relaxed) as f64),
                )
            })
            .collect();
        Json::Obj(vec![
            ("shard".into(), Json::Num(shard as f64)),
            (
                "queue_depth".into(),
                Json::Num(self.depth.load(Ordering::Relaxed) as f64),
            ),
            ("queue_bound".into(), Json::Num(queue_bound as f64)),
            (
                "max_depth".into(),
                Json::Num(self.max_depth.load(Ordering::Relaxed) as f64),
            ),
            (
                "batches_applied".into(),
                Json::Num(self.jobs_done.load(Ordering::Relaxed) as f64),
            ),
            (
                "busy_rejections".into(),
                Json::Num(self.busy_rejections.load(Ordering::Relaxed) as f64),
            ),
            ("depth_histogram".into(), Json::Obj(hist)),
        ])
    }
}

/// Accumulated per-relation serving statistics (guarded by the tenant's
/// entry lock, written only by the owning shard worker).
#[derive(Default)]
pub(crate) struct RelationStats {
    /// Batches applied through `clean_delta`.
    pub(crate) batches: u64,
    /// Tuples those batches carried.
    pub(crate) tuples_ingested: u64,
    /// Fixes those batches produced.
    pub(crate) fixes: u64,
    /// Cumulative wall-clock seconds per phase, in fixed (c, e, h) order,
    /// streamed from the engine's [`PhaseObserver`] hook.
    pub(crate) phase_seconds: [f64; 3],
}

/// [`PhaseObserver`] summing phase wall-clock into fixed (c, e, h) slots —
/// what `TenantEntry::apply` hands the engine's delta path so `stats` can
/// report per-relation phase timings.
#[derive(Default)]
pub(crate) struct PhaseAccum {
    pub(crate) seconds: [f64; 3],
}

impl PhaseObserver for PhaseAccum {
    fn on_phase_end(&mut self, stats: &PhaseStats) {
        self.seconds[stats.phase.index()] += stats.seconds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_depth_axis() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(3), 3);
        assert_eq!(bucket_index(4), 4);
        assert_eq!(bucket_index(7), 4);
        assert_eq!(bucket_index(8), 5);
        assert_eq!(bucket_index(31), 6);
        assert_eq!(bucket_index(1000), 7);
    }

    #[test]
    fn shard_stats_report_all_fields() {
        let s = ShardStats::default();
        s.depth.fetch_add(2, Ordering::Relaxed);
        s.record_enqueue(1);
        s.record_enqueue(2);
        s.record_busy();
        let j = s.to_json(3, 64);
        assert_eq!(j.get("shard").and_then(Json::as_usize), Some(3));
        assert_eq!(j.get("queue_depth").and_then(Json::as_usize), Some(2));
        assert_eq!(j.get("max_depth").and_then(Json::as_usize), Some(2));
        assert_eq!(j.get("busy_rejections").and_then(Json::as_usize), Some(1));
        let hist = j.get("depth_histogram").unwrap();
        assert_eq!(hist.get("1").and_then(Json::as_usize), Some(1));
        assert_eq!(hist.get("2").and_then(Json::as_usize), Some(1));
    }
}
