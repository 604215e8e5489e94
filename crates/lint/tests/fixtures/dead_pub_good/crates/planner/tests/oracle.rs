#[test]
fn oracle_agrees() {
    assert_eq!(planner::oracle(4), 4);
}
