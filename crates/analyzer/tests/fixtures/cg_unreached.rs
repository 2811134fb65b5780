// A library module for the cg-unreached rule. Its roots are a bin and a
// root integration test, built in tests/rules.rs.

pub fn only_tested() -> u32 {
    1
}

pub fn from_bin() -> u32 {
    2
}

pub fn from_root_test() -> u32 {
    3
}

pub fn in_macro(x: u32) -> bool {
    x > 0
}

pub fn as_value(x: u32) -> u32 {
    x
}

pub struct Gauge(pub u32);

impl Gauge {
    pub fn len(&self) -> usize {
        0
    }

    pub fn scale(x: u32) -> u32 {
        x
    }
}

impl std::fmt::Display for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

// lint:allow(cg-unreached, reference oracle the tests of from_bin compare against)
pub fn oracle() -> u32 {
    2
}

// lint:allow(cg-unreached, stale: the bin calls this)
pub fn waived_but_reached() -> u32 {
    4
}

pub fn in_array_a(x: u32) -> u32 {
    x
}

pub fn in_array_b(x: u32) -> u32 {
    x
}

pub fn in_static_table(x: u32) -> u32 {
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_tested_is_one() {
        assert_eq!(only_tested(), 1);
        assert_eq!(oracle(), from_bin());
    }
}
