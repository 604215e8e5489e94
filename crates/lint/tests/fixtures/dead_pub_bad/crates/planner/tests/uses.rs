//! Integration tests are not readers either.

#[test]
fn integration() {
    assert_eq!(planner::tested_only(1), 2);
}
