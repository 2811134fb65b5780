// A root integration test: every fn here is a caller, #[test] fns
// included, and no rule reports in it.

use std::collections::HashMap;
use wiot::fx::{as_value, from_root_test as three, in_array_a, in_array_b, Gauge};

#[test]
fn reaches_the_library() {
    assert_eq!(three(), 3);
    assert!(wiot::fx::in_macro(1));
    assert_eq!(Gauge(0).len(), 0);
    let scaled: Vec<u32> = [1, 2].iter().copied().map(Gauge::scale).collect();
    let same: Vec<u32> = scaled.iter().copied().map(as_value).collect();
    let mut seen = HashMap::new();
    seen.insert(0, same.first().copied().unwrap());
    let pair: [fn(u32) -> u32; 2] = [in_array_a, in_array_b];
    assert_eq!(pair[1](5), 5);
}
