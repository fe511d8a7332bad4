//! Controller-side statistics: latencies, row-state mix, occupancy
//! distributions and write-queue saturation (paper Figures 7, 8, 9a, 11).

#![expect(
    clippy::disallowed_types,
    clippy::float_arithmetic,
    reason = "report-only derived metrics (latency averages, percentiles) computed from integer counters"
)]

use burst_dram::{Cycle, RowState};

/// Histogram of "how often were exactly N accesses outstanding", sampled
/// once per memory cycle — the quantity Figures 8 and 11 plot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccupancyHistogram {
    counts: Vec<u64>,
    samples: u64,
}

impl OccupancyHistogram {
    /// Creates a histogram able to count occupancies `0..=max`.
    pub fn new(max: usize) -> Self {
        OccupancyHistogram {
            counts: vec![0; max + 1],
            samples: 0,
        }
    }

    /// Records one cycle with `n` accesses outstanding (saturating at the
    /// histogram's maximum bucket).
    pub fn record(&mut self, n: usize) {
        let idx = n.min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.samples += 1;
    }

    /// Records `k` cycles with `n` accesses outstanding in one step —
    /// exactly equivalent to calling [`OccupancyHistogram::record`] `k`
    /// times, used by the cycle-skipping batch advance.
    pub fn record_n(&mut self, n: usize, k: u64) {
        let idx = n.min(self.counts.len() - 1);
        self.counts[idx] += k;
        self.samples += k;
    }

    /// Number of samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Fraction of time exactly `n` accesses were outstanding.
    pub fn fraction(&self, n: usize) -> f64 {
        if self.samples == 0 || n >= self.counts.len() {
            0.0
        } else {
            self.counts[n] as f64 / self.samples as f64
        }
    }

    /// Fraction of time at least `n` accesses were outstanding.
    pub fn fraction_at_least(&self, n: usize) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let total: u64 = self.counts[n.min(self.counts.len() - 1)..].iter().sum();
        total as f64 / self.samples as f64
    }

    /// Mean occupancy.
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, &c)| i as u64 * c)
            .sum();
        sum as f64 / self.samples as f64
    }

    /// The occupancy with the most samples (mode).
    pub fn peak(&self) -> usize {
        self.counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| *c)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Raw per-occupancy fractions, index = occupancy.
    pub fn fractions(&self) -> Vec<f64> {
        (0..self.counts.len()).map(|i| self.fraction(i)).collect()
    }

    /// Raw per-occupancy sample counts, index = occupancy.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Serialises the histogram: the bucket count, then every bucket and
    /// the sample total as varints (most buckets are zero or small).
    pub fn save_snap(&self, w: &mut burst_snap::SnapWriter) {
        let Self { counts, samples } = self;
        w.usize(counts.len());
        for &c in counts {
            w.varint(c);
        }
        w.varint(*samples);
    }

    /// Reads a histogram written by [`OccupancyHistogram::save_snap`],
    /// sized by the stream. Callers that know the pool capacity check the
    /// bucket count themselves.
    pub fn load_snap(r: &mut burst_snap::SnapReader) -> Result<Self, burst_snap::SnapError> {
        let len = r.seq_len(1)?;
        if len == 0 {
            return Err(burst_snap::SnapError::Corrupt("empty occupancy histogram"));
        }
        let counts = (0..len)
            .map(|_| r.varint())
            .collect::<Result<Vec<u64>, _>>()?;
        Ok(OccupancyHistogram {
            counts,
            samples: r.varint()?,
        })
    }
}

/// Log-scaled latency histogram with percentile queries.
///
/// Buckets are powers of two (0, 1, 2-3, 4-7, ...), which keeps the
/// structure tiny while resolving percentiles to within a factor of two —
/// enough to compare scheduling mechanisms' tails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 32],
    count: u64,
    max: Cycle,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [0; 32],
            count: 0,
            max: 0,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Cycle) {
        let idx = if latency == 0 {
            0
        } else {
            (64 - latency.leading_zeros()) as usize
        };
        self.buckets[idx.min(31)] += 1;
        self.count += 1;
        self.max = self.max.max(latency);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded latency.
    pub fn max(&self) -> Cycle {
        self.max
    }

    /// The upper bound of the bucket containing the `q`-quantile
    /// (`0.0..=1.0`). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> Cycle {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return if i == 0 {
                    0
                } else {
                    (1u64 << i).saturating_sub(1).min(self.max)
                };
            }
        }
        self.max
    }

    /// Median latency (bucket upper bound).
    pub fn p50(&self) -> Cycle {
        self.quantile(0.50)
    }

    /// 95th-percentile latency (bucket upper bound).
    pub fn p95(&self) -> Cycle {
        self.quantile(0.95)
    }

    /// 99th-percentile latency (bucket upper bound).
    pub fn p99(&self) -> Cycle {
        self.quantile(0.99)
    }

    /// Raw power-of-two bucket counts.
    pub fn buckets(&self) -> &[u64; 32] {
        &self.buckets
    }

    /// Serialises the histogram: every bucket, the sample count and the
    /// maximum as varints.
    pub fn save_snap(&self, w: &mut burst_snap::SnapWriter) {
        let Self {
            buckets,
            count,
            max,
        } = self;
        for &b in buckets {
            w.varint(b);
        }
        w.varint(*count);
        w.varint(*max);
    }

    /// Reads a histogram written by [`LatencyHistogram::save_snap`].
    pub fn load_snap(r: &mut burst_snap::SnapReader) -> Result<Self, burst_snap::SnapError> {
        let mut buckets = [0; 32];
        for b in &mut buckets {
            *b = r.varint()?;
        }
        Ok(LatencyHistogram {
            buckets,
            count: r.varint()?,
            max: r.varint()?,
        })
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// Aggregate controller statistics for one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct CtrlStats {
    /// Reads completed (including forwarded).
    pub reads_done: u64,
    /// Writes drained to the device.
    pub writes_done: u64,
    /// Reads satisfied by write-queue forwarding.
    pub forwards: u64,
    /// Sum of read latencies (arrival to data end), memory cycles.
    pub read_latency_sum: u64,
    /// Sum of write latencies (arrival to data end), memory cycles.
    pub write_latency_sum: u64,
    /// Accesses that started as row hits.
    pub row_hits: u64,
    /// Accesses that started as row empties.
    pub row_empties: u64,
    /// Accesses that started as row conflicts.
    pub row_conflicts: u64,
    /// Cycles sampled.
    pub cycles: u64,
    /// Cycles on which the write queue was saturated (at capacity).
    pub write_saturated_cycles: u64,
    /// Reads preempting ongoing writes (burst/Intel RP variants).
    pub preemptions: u64,
    /// Writes piggybacked onto burst ends (burst WP/TH variants).
    pub piggybacks: u64,
    /// Faults injected by the deterministic fault injector.
    pub faults_injected: u64,
    /// Accesses re-executed after an injected fault.
    pub retries: u64,
    /// Accesses escalated by the starvation watchdog (served oldest-first
    /// after exceeding the escalation age).
    pub escalations: u64,
    /// Forward-progress stalls latched by the watchdog.
    pub watchdog_trips: u64,
    /// Largest observed access age (arrival to completion, or to the
    /// current cycle for still-outstanding accesses), in memory cycles.
    pub max_access_age: u64,
    /// Distribution of outstanding reads (Figures 8a / 11a).
    pub outstanding_reads: OccupancyHistogram,
    /// Distribution of outstanding writes (Figures 8b / 11b).
    pub outstanding_writes: OccupancyHistogram,
    /// Read-latency distribution (tail analysis beyond the paper's means).
    pub read_latencies: LatencyHistogram,
    /// Write-latency distribution.
    pub write_latencies: LatencyHistogram,
}

impl CtrlStats {
    /// Creates zeroed statistics; histograms sized for `pool_capacity`.
    pub fn new(pool_capacity: usize) -> Self {
        CtrlStats {
            reads_done: 0,
            writes_done: 0,
            forwards: 0,
            read_latency_sum: 0,
            write_latency_sum: 0,
            row_hits: 0,
            row_empties: 0,
            row_conflicts: 0,
            cycles: 0,
            write_saturated_cycles: 0,
            preemptions: 0,
            piggybacks: 0,
            faults_injected: 0,
            retries: 0,
            escalations: 0,
            watchdog_trips: 0,
            max_access_age: 0,
            outstanding_reads: OccupancyHistogram::new(pool_capacity),
            outstanding_writes: OccupancyHistogram::new(pool_capacity),
            read_latencies: LatencyHistogram::new(),
            write_latencies: LatencyHistogram::new(),
        }
    }

    /// Records the row-state classification of an access that just became
    /// ongoing.
    pub fn classify(&mut self, state: RowState) {
        match state {
            RowState::Hit => self.row_hits += 1,
            RowState::Empty => self.row_empties += 1,
            RowState::Conflict => self.row_conflicts += 1,
        }
    }

    /// Records a completed read of latency `lat`.
    pub fn read_done(&mut self, lat: Cycle) {
        self.reads_done += 1;
        self.read_latency_sum += lat;
        self.read_latencies.record(lat);
    }

    /// Records a drained write of latency `lat`.
    pub fn write_done(&mut self, lat: Cycle) {
        self.writes_done += 1;
        self.write_latency_sum += lat;
        self.write_latencies.record(lat);
    }

    /// Samples per-cycle occupancy: advances the cycle counter and records
    /// one occupancy sample, reproducing the paper's per-cycle Figure 8/11
    /// distributions.
    pub fn sample(&mut self, reads: usize, writes: usize, write_capacity: usize) {
        self.cycles += 1;
        self.outstanding_reads.record(reads);
        self.outstanding_writes.record(writes);
        if writes >= write_capacity {
            self.write_saturated_cycles += 1;
        }
    }

    /// Samples `k` cycles of identical occupancy in one step — equivalent
    /// to `k` calls to [`CtrlStats::sample`] with the same arguments. Used
    /// by the cycle-skipping batch advance, where every skipped cycle would
    /// have sampled the same (unchanging) occupancy.
    pub fn sample_n(&mut self, reads: usize, writes: usize, write_capacity: usize, k: u64) {
        self.cycles += k;
        self.outstanding_reads.record_n(reads, k);
        self.outstanding_writes.record_n(writes, k);
        if writes >= write_capacity {
            self.write_saturated_cycles += k;
        }
    }

    /// Average read latency in memory cycles (Figure 7a).
    pub fn avg_read_latency(&self) -> f64 {
        if self.reads_done == 0 {
            0.0
        } else {
            self.read_latency_sum as f64 / self.reads_done as f64
        }
    }

    /// Average write latency in memory cycles (Figure 7b).
    pub fn avg_write_latency(&self) -> f64 {
        if self.writes_done == 0 {
            0.0
        } else {
            self.write_latency_sum as f64 / self.writes_done as f64
        }
    }

    /// Total accesses classified against a bank.
    pub fn classified(&self) -> u64 {
        self.row_hits + self.row_empties + self.row_conflicts
    }

    /// Row-hit fraction of all classified accesses (Figure 9a).
    pub fn row_hit_rate(&self) -> f64 {
        let n = self.classified();
        if n == 0 {
            0.0
        } else {
            self.row_hits as f64 / n as f64
        }
    }

    /// Row-conflict fraction (Figure 9a).
    pub fn row_conflict_rate(&self) -> f64 {
        let n = self.classified();
        if n == 0 {
            0.0
        } else {
            self.row_conflicts as f64 / n as f64
        }
    }

    /// Row-empty fraction (Figure 9a).
    pub fn row_empty_rate(&self) -> f64 {
        let n = self.classified();
        if n == 0 {
            0.0
        } else {
            self.row_empties as f64 / n as f64
        }
    }

    /// Serialises every counter (as a varint) and histogram, for a
    /// checkpoint or a sweep-journal record.
    pub fn save_snap(&self, w: &mut burst_snap::SnapWriter) {
        let Self {
            reads_done,
            writes_done,
            forwards,
            read_latency_sum,
            write_latency_sum,
            row_hits,
            row_empties,
            row_conflicts,
            cycles,
            write_saturated_cycles,
            preemptions,
            piggybacks,
            faults_injected,
            retries,
            escalations,
            watchdog_trips,
            max_access_age,
            outstanding_reads,
            outstanding_writes,
            read_latencies,
            write_latencies,
        } = self;
        for v in [
            *reads_done,
            *writes_done,
            *forwards,
            *read_latency_sum,
            *write_latency_sum,
            *row_hits,
            *row_empties,
            *row_conflicts,
            *cycles,
            *write_saturated_cycles,
            *preemptions,
            *piggybacks,
            *faults_injected,
            *retries,
            *escalations,
            *watchdog_trips,
            *max_access_age,
        ] {
            w.varint(v);
        }
        outstanding_reads.save_snap(w);
        outstanding_writes.save_snap(w);
        read_latencies.save_snap(w);
        write_latencies.save_snap(w);
    }

    /// Reads statistics written by [`CtrlStats::save_snap`], with the
    /// occupancy histograms sized by the stream.
    pub fn load_snap(r: &mut burst_snap::SnapReader) -> Result<Self, burst_snap::SnapError> {
        Ok(CtrlStats {
            reads_done: r.varint()?,
            writes_done: r.varint()?,
            forwards: r.varint()?,
            read_latency_sum: r.varint()?,
            write_latency_sum: r.varint()?,
            row_hits: r.varint()?,
            row_empties: r.varint()?,
            row_conflicts: r.varint()?,
            cycles: r.varint()?,
            write_saturated_cycles: r.varint()?,
            preemptions: r.varint()?,
            piggybacks: r.varint()?,
            faults_injected: r.varint()?,
            retries: r.varint()?,
            escalations: r.varint()?,
            watchdog_trips: r.varint()?,
            max_access_age: r.varint()?,
            outstanding_reads: OccupancyHistogram::load_snap(r)?,
            outstanding_writes: OccupancyHistogram::load_snap(r)?,
            read_latencies: LatencyHistogram::load_snap(r)?,
            write_latencies: LatencyHistogram::load_snap(r)?,
        })
    }

    /// Fraction of sampled cycles the write queue was saturated
    /// (Section 5.1). The denominator is the sampled population, which
    /// equals `cycles` at the default every-cycle sampling interval.
    pub fn write_saturation_rate(&self) -> f64 {
        let samples = self.outstanding_writes.samples();
        if samples == 0 {
            0.0
        } else {
            self.write_saturated_cycles as f64 / samples as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_fractions_sum_to_one() {
        let mut h = OccupancyHistogram::new(10);
        for n in [0usize, 1, 1, 2, 5, 10, 15] {
            h.record(n);
        }
        let total: f64 = h.fractions().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(h.samples(), 7);
        // 15 saturates into the top bucket.
        assert!(h.fraction(10) > 0.0);
    }

    #[test]
    fn histogram_mean_and_peak() {
        let mut h = OccupancyHistogram::new(10);
        for _ in 0..3 {
            h.record(4);
        }
        h.record(2);
        assert_eq!(h.peak(), 4);
        assert!((h.mean() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn fraction_at_least() {
        let mut h = OccupancyHistogram::new(4);
        h.record(0);
        h.record(2);
        h.record(4);
        h.record(4);
        assert!((h.fraction_at_least(2) - 0.75).abs() < 1e-12);
        assert!((h.fraction_at_least(4) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stats_averages() {
        let mut s = CtrlStats::new(16);
        s.read_done(10);
        s.read_done(30);
        s.write_done(100);
        assert!((s.avg_read_latency() - 20.0).abs() < 1e-12);
        assert!((s.avg_write_latency() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn stats_row_rates() {
        let mut s = CtrlStats::new(16);
        s.classify(RowState::Hit);
        s.classify(RowState::Hit);
        s.classify(RowState::Conflict);
        s.classify(RowState::Empty);
        assert!((s.row_hit_rate() - 0.5).abs() < 1e-12);
        assert!((s.row_conflict_rate() - 0.25).abs() < 1e-12);
        assert!((s.row_empty_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn saturation_rate() {
        let mut s = CtrlStats::new(64);
        s.sample(1, 64, 64);
        s.sample(1, 10, 64);
        s.sample(1, 64, 64);
        s.sample(1, 0, 64);
        assert!((s.write_saturation_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = CtrlStats::new(4);
        assert_eq!(s.avg_read_latency(), 0.0);
        assert_eq!(s.row_hit_rate(), 0.0);
        assert_eq!(s.write_saturation_rate(), 0.0);
    }
}

#[cfg(test)]
mod latency_tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn single_sample_quantiles() {
        let mut h = LatencyHistogram::new();
        h.record(100);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 100);
        // 100 lands in the 64..127 bucket; the reported bound is capped at
        // the observed max.
        assert_eq!(h.p50(), 100);
        assert_eq!(h.p99(), 100);
    }

    #[test]
    fn quantiles_order_monotonically() {
        let mut h = LatencyHistogram::new();
        for lat in [5u64, 10, 10, 20, 40, 80, 160, 320, 640, 1280] {
            h.record(lat);
        }
        assert!(h.p50() <= h.p95());
        assert!(h.p95() <= h.p99());
        assert!(h.p99() <= h.max());
    }

    #[test]
    fn tail_separates_from_median() {
        let mut h = LatencyHistogram::new();
        for _ in 0..95 {
            h.record(10);
        }
        for _ in 0..5 {
            h.record(1000);
        }
        assert!(h.p50() < 32, "median bucket covers 10: {}", h.p50());
        assert!(h.p99() >= 512, "p99 must reach the tail: {}", h.p99());
    }

    #[test]
    fn zero_latency_forwarded_reads() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn ctrl_stats_populates_latency_histograms() {
        let mut s = CtrlStats::new(8);
        s.read_done(12);
        s.read_done(300);
        s.write_done(900);
        assert_eq!(s.read_latencies.count(), 2);
        assert_eq!(s.write_latencies.count(), 1);
        assert_eq!(s.read_latencies.max(), 300);
        assert_eq!(s.write_latencies.max(), 900);
    }
}
