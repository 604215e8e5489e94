//! Fixture: the binary reads `plan`, nothing else.

fn main() {
    std::process::exit(planner::plan(1) as i32);
}
