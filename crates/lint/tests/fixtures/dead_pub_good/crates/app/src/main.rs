//! Fixture: the binary reads `Queue` and its `len`.

fn main() {
    let q = planner::Queue(vec![1, 2]);
    std::process::exit(q.len() as i32);
}
