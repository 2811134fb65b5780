// Local bindings that share a name with a workspace fn. Lexed as the
// survival policy's embedded file, next to a host-side `scan` that
// panics: a call to the closure or to the parameter is no call to that
// `scan`, so no chain from the entry point reaches it.

impl SurvivalPolicy {
    pub fn step(&mut self, inputs: &[u16]) -> u16 {
        let mut hi = 0u16;
        let mut scan = |lanes: &[u16]| {
            for &x in lanes {
                hi = hi.max(x);
            }
        };
        scan(inputs);
        hi.saturating_add(apply(|x| x))
    }
}

fn apply(scan: impl Fn(u16) -> u16) -> u16 {
    scan(1)
}
