//! Fixture: every public item has a reader, or an allow naming one.

/// Named only by the read-only `harness` root: live.
pub fn measured() -> u32 {
    3
}

/// A reference oracle only an integration test calls, kept with an
/// allow that names that test.
// chronus-lint: allow(dead-pub) — read by crates/planner/tests/oracle.rs
pub fn oracle(n: u32) -> u32 {
    n
}

/// A queue the binary uses.
pub struct Queue(pub Vec<u32>);

impl Queue {
    /// Live: the binary calls `len`.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// A stack nobody uses; its `len` shares a name with the live one,
/// which matching by name cannot tell apart, so it is not flagged.
pub struct Stack(Vec<u32>);

impl Stack {
    /// Dead, but named like `Queue::len`.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}
