//! Property-based tests for the autonomous-loop primitives.

use ira_autogpt::Budget;
use proptest::prelude::*;

proptest! {
    #[test]
    fn budget_grants_exactly_the_limits(
        max_searches in 0u32..30,
        max_fetches in 0u32..30,
        max_cycles in 0u32..30,
        attempts in 0u32..100,
    ) {
        let mut budget = Budget::new(max_searches, max_fetches, max_cycles);
        let mut granted = (0u32, 0u32, 0u32);
        for i in 0..attempts {
            match i % 3 {
                0 => {
                    if budget.take_search().is_ok() {
                        granted.0 += 1;
                    }
                }
                1 => {
                    if budget.take_fetch().is_ok() {
                        granted.1 += 1;
                    }
                }
                _ => {
                    if budget.take_cycle().is_ok() {
                        granted.2 += 1;
                    }
                }
            }
        }
        prop_assert!(granted.0 <= max_searches);
        prop_assert!(granted.1 <= max_fetches);
        prop_assert!(granted.2 <= max_cycles);
        prop_assert_eq!(budget.searches_used(), granted.0);
        prop_assert_eq!(budget.fetches_used(), granted.1);
        prop_assert_eq!(budget.cycles_used(), granted.2);
    }
}
