//! Checks every output against what the generator planted.

/// Whether the candidate list names exactly the planted applications
/// (in any order): none missed, none invented.
pub fn candidates_agree<T: PartialEq>(planted: &[T], got: &[T]) -> bool {
    planted.iter().all(|p| got.contains(p)) && got.iter().all(|g| planted.contains(g))
}

/// The verdict of one check pass.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Oracle {
    pub attempted: u64,
    /// Items with any output that disagreed with ground truth.
    pub failed: u64,
    /// Items carrying a needle, and those whose own application was found.
    pub marked: u64,
    pub recalled: u64,
    /// Items carrying none, and those that got a candidate anyway.
    pub marker_free: u64,
    pub false_positives: u64,
    /// Items where the multipattern, allocating and linear paths differ.
    pub twin_mismatches: u64,
    /// Items with an identification expected, and those identified right.
    pub to_identify: u64,
    pub identified: u64,
    pub first_failure: Option<String>,
}

impl Oracle {
    /// Judge one candidate list; `planted[0]`, if any, is the item's own
    /// application. Returns whether it agrees with the truth.
    pub fn judge_candidates<T: PartialEq>(&mut self, planted: &[T], got: &[T]) -> bool {
        match planted.first() {
            Some(own) => {
                self.marked += 1;
                self.recalled += u64::from(got.contains(own));
            }
            None => {
                self.marker_free += 1;
                self.false_positives += u64::from(!got.is_empty());
            }
        }
        candidates_agree(planted, got)
    }

    /// Close `items` items with one verdict; `describe` names the first
    /// failure for the operator.
    pub fn record(&mut self, items: u64, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += items;
        if !ok {
            self.failed += items;
            self.first_failure.get_or_insert_with(describe);
        }
    }

    fn share(part: u64, whole: u64, when_empty: f64) -> f64 {
        if whole == 0 {
            when_empty
        } else {
            part as f64 / whole as f64
        }
    }

    pub fn failed_share(&self) -> f64 {
        Self::share(self.failed, self.attempted, 0.0)
    }

    pub fn recall(&self) -> f64 {
        Self::share(self.recalled, self.marked, 1.0)
    }

    pub fn false_positive_share(&self) -> f64 {
        Self::share(self.false_positives, self.marker_free, 0.0)
    }

    pub fn identified_share(&self) -> f64 {
        Self::share(self.identified, self.to_identify, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_a_wrong_candidate_list() {
        assert!(candidates_agree(&["jenkins"], &["jenkins"]));
        assert!(candidates_agree(&["a", "b"], &["b", "a"]));
        assert!(candidates_agree::<&str>(&[], &[]));
        assert!(!candidates_agree(&["jenkins"], &["gocd"]), "wrong app");
        assert!(!candidates_agree(&["jenkins"], &[]), "missed");
        assert!(!candidates_agree(&[], &["jenkins"]), "invented");
        assert!(
            !candidates_agree(&["jenkins"], &["jenkins", "gocd"]),
            "extra"
        );
    }

    #[test]
    fn counts_recall_false_positives_and_first_failure() {
        let mut o = Oracle::default();
        let ok = o.judge_candidates(&["a"], &["a"]);
        o.record(1, ok, || unreachable!());
        let ok = o.judge_candidates(&["a"], &["b"]);
        o.record(1, ok, || "item 1".into());
        let ok = o.judge_candidates(&[], &["b"]);
        o.record(1, ok, || "item 2".into());
        let ok = o.judge_candidates::<&str>(&[], &[]);
        o.record(1, ok, || unreachable!());
        assert_eq!((o.attempted, o.failed), (4, 2));
        assert_eq!(o.recall(), 0.5);
        assert_eq!(o.false_positive_share(), 0.5);
        assert_eq!(o.failed_share(), 0.5);
        assert_eq!(o.first_failure.as_deref(), Some("item 1"));
    }
}
