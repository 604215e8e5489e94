//! Fixture: a read-only root outside the linted crates.

fn main() {
    std::process::exit(planner::measured() as i32);
}
