//! The correctness gate every simulation run of the benchmark passes
//! through: packet conservation and one digest per instance.

use dibs::{RunDigest, RunResults};

/// Outcome of the checks on a set of runs.
#[derive(Debug, Default)]
pub struct Gate {
    /// Runs checked.
    pub attempted: u64,
    /// Runs that failed a check.
    pub failed: u64,
    /// One line per failure, for stderr.
    pub failures: Vec<String>,
}

impl Gate {
    /// Checks one run: its packets must balance, and its digest must
    /// equal `expected` when that instance has run before. Returns the
    /// run's digest fingerprint.
    pub fn check(&mut self, label: &str, results: &RunResults, expected: Option<u64>) -> u64 {
        self.attempted += 1;
        let fingerprint = RunDigest::of(results).fingerprint();
        let c = &results.counters;
        let accounted = c.packets_delivered + c.total_drops() + results.packets_in_flight;
        let mut problems = Vec::new();
        if c.packets_sent != accounted {
            problems.push(format!(
                "conservation: sent {} != delivered {} + dropped {} + in flight {}",
                c.packets_sent,
                c.packets_delivered,
                c.total_drops(),
                results.packets_in_flight
            ));
        }
        if let Some(want) = expected {
            if want != fingerprint {
                problems.push(format!(
                    "digest {fingerprint:016x} differs from the instance's first run {want:016x}"
                ));
            }
        }
        if !problems.is_empty() {
            self.failed += 1;
            self.failures
                .push(format!("{label}: {}", problems.join("; ")));
        }
        fingerprint
    }

    /// Records a failed check that is not about one run's results (for
    /// example a replay that does not reproduce the trace).
    pub fn fail(&mut self, label: &str, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(format!("{label}: {why}"));
    }

    /// Records a passed check of the same kind as [`Gate::fail`].
    pub fn pass(&mut self) {
        self.attempted += 1;
    }
}
