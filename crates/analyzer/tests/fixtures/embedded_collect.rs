// `.collect()` allocates a fresh container, with or without a
// turbofish; `push` into a fixed-capacity ring allocates nothing. This
// file is a lexer fixture: the test harness feeds it to the analyzer
// under an embedded rel_path; it is never compiled.

pub fn squares(xs: &[i32]) -> Vec<i32> {
    xs.iter().map(|x| x * x).collect()
}

pub fn evens(xs: &[i32]) -> usize {
    xs.iter().filter(|x| *x % 2 == 0).collect::<Vec<_>>().len()
}

pub fn record(ring: &mut Ring, x: i32) {
    ring.push(x);
}
