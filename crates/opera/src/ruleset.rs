//! Routing-state scalability model (Table 1, §6.2).
//!
//! An Opera ToR holds, for each of the `N` topology slices, one
//! low-latency rule per non-rack-local destination (`N − 1`) plus one bulk
//! rule per direct circuit active in that slice (`u − 1` with one switch
//! reconfiguring), so:
//!
//! ```text
//! entries(N, u) = N · (N − 1 + u − 1) = N · (N + u − 2)
//! ```
//!
//! Table 1 reports this count and its utilization of the Barefoot Tofino
//! 65x100GE's rule capacity as measured with the Capilano compiler; the
//! utilization column implies a capacity of ≈1.70 M entries, which we use
//! to reproduce the percentages.
//!
//! The built tables ([`crate::tables`]) hold `u − 1` rules fewer per ToR.
//! The closed form counts `u − 1` bulk rules in every slice, but each rack
//! is self-paired in exactly one of the `N` matchings (the factorization
//! covers the diagonal), and that matching is live for `u − 1` slices in
//! which the rack has one circuit fewer. So every ToR of the paper's
//! 108-rack network holds 11 556 low-latency + 535 bulk = 12 091 rules, not
//! Table 1's 12 096; `tests/integration.rs` counts them from the tables.
//! The Table 1 driver reports the closed form, as the paper does.

/// Tofino 65x100GE rule capacity implied by Table 1 (entries at 100%).
pub const TOFINO_RULE_CAPACITY: f64 = 1_701_000.0;

/// One row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RulesetReport {
    /// Number of racks `N`.
    pub racks: usize,
    /// ToR uplinks `u` (circuit switches).
    pub uplinks: usize,
    /// Total table entries required.
    pub entries: u64,
    /// Percent of switch rule memory used.
    pub utilization_pct: f64,
}

/// Compute the ruleset size for `racks` racks with `uplinks` uplinks.
pub fn ruleset_for(racks: usize, uplinks: usize) -> RulesetReport {
    let entries = racks as u64 * (racks as u64 + uplinks as u64 - 2);
    RulesetReport {
        racks,
        uplinks,
        entries,
        utilization_pct: entries as f64 / TOFINO_RULE_CAPACITY * 100.0,
    }
}

/// The datacenter sizes of Table 1 as `(racks, uplinks)` pairs (uplinks
/// follow `u = k/2` for the radix serving that rack count).
pub fn table1_rows() -> Vec<(usize, usize)> {
    vec![
        (108, 6),
        (252, 9),
        (520, 13),
        (768, 16),
        (1008, 18),
        (1200, 20),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_entries() {
        // Table 1's #Entries column.
        let expect = [12_096u64, 65_268, 276_120, 600_576, 1_032_192, 1_461_600];
        for ((racks, uplinks), want) in table1_rows().into_iter().zip(expect) {
            let got = ruleset_for(racks, uplinks).entries;
            assert_eq!(got, want, "racks={racks}");
        }
    }

    #[test]
    fn matches_published_utilization() {
        let expect = [0.7, 3.8, 16.2, 35.3, 60.7, 85.9];
        for ((racks, uplinks), want) in table1_rows().into_iter().zip(expect) {
            let got = ruleset_for(racks, uplinks).utilization_pct;
            assert!(
                (got - want).abs() < 0.15,
                "racks={racks}: {got:.2}% vs {want}%"
            );
        }
    }

    #[test]
    fn quadratic_growth() {
        let small = ruleset_for(100, 6).entries;
        let big = ruleset_for(200, 6).entries;
        assert!(big > 3 * small && big < 5 * small);
    }
}
