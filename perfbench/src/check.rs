//! The per-operation output check.
//!
//! An operation is one replicated run, one group run, or one fleet slot.
//! It fails when its call returned an error, when its console differs from
//! the unreplicated console of the same program and seed, when an output
//! id was performed twice, when a group did not complete, or when a fleet
//! slot is divergent or unverified. Failed operations are counted against
//! attempted ones, so a faster run that produced wrong output cannot pass
//! as a gain.

use ftjvm_core::FleetReport;

/// What one operation produced, as far as the check needs it.
#[derive(Debug, Default)]
pub struct Outcome<'a> {
    /// The error the call returned, if any.
    pub error: Option<String>,
    /// Console lines the external world observed.
    pub console: Vec<String>,
    /// Console of the unreplicated run of the same program and seed.
    pub reference: &'a [String],
    /// Result of `check_no_duplicate_outputs` (the duplicated id).
    pub duplicate: Option<u64>,
    /// False for a group run that did not complete.
    pub completed: bool,
}

/// Attempted and failed operation counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed the check.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; returns whether it passed. The first few
    /// failures are described on standard error.
    pub fn record(&mut self, what: &str, o: &Outcome<'_>) -> bool {
        self.attempted += 1;
        let why = if let Some(e) = &o.error {
            Some(format!("error: {e}"))
        } else if !o.completed {
            Some("group did not complete".to_string())
        } else if let Some(id) = o.duplicate {
            Some(format!("output {id} performed twice"))
        } else if o.console != o.reference {
            Some(format!("console {:?} differs from unreplicated {:?}", o.console, o.reference))
        } else {
            None
        };
        match why {
            None => true,
            Some(why) => {
                self.failed += 1;
                if self.failed <= 5 {
                    eprintln!("perfbench: {what} failed: {why}");
                }
                false
            }
        }
    }

    /// Counts every slot of a fleet run: a slot fails when it raised an
    /// error or survived with output that failed verification. Slots lost
    /// beyond the one-fault model are modelled outcomes, not failures.
    pub fn record_fleet(&mut self, report: &FleetReport) {
        for o in &report.outcomes {
            self.attempted += 1;
            if o.error.is_some() || (o.survived && !o.output_ok) {
                self.failed += 1;
                if self.failed <= 5 {
                    eprintln!("perfbench: fleet slot {} failed: {:?}", o.pair_id, o.error);
                }
            }
        }
        if !report.all_verified() && self.failed == 0 {
            // all_verified also requires every slot to complete.
            self.failed += 1;
            eprintln!("perfbench: fleet report is not verified");
        }
    }

    /// Adds another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok<'a>(console: &[&str], reference: &'a [String]) -> Outcome<'a> {
        Outcome {
            console: console.iter().map(|s| s.to_string()).collect(),
            reference,
            completed: true,
            ..Outcome::default()
        }
    }

    #[test]
    fn a_wrong_console_is_a_failed_operation() {
        let reference = vec!["42".to_string()];
        let mut t = Tally::default();
        assert!(t.record("right", &ok(&["42"], &reference)));
        assert!(!t.record("wrong", &ok(&["43"], &reference)));
        assert!(!t.record("short", &ok(&[], &reference)));
        assert_eq!(t, Tally { attempted: 3, failed: 2 });
    }

    #[test]
    fn errors_duplicates_and_incomplete_groups_fail() {
        let reference = vec!["1".to_string()];
        let mut t = Tally::default();
        let mut o = ok(&["1"], &reference);
        o.duplicate = Some(7);
        assert!(!t.record("dup", &o));
        let mut o = ok(&["1"], &reference);
        o.completed = false;
        assert!(!t.record("incomplete", &o));
        let mut o = ok(&["1"], &reference);
        o.error = Some("replay diverged".into());
        assert!(!t.record("error", &o));
        assert_eq!(t, Tally { attempted: 3, failed: 3 });
    }
}
