//! Fixture: public functions no non-test code names.

mod helpers;

pub use helpers::reexported_only;

/// Called by the app binary: live.
pub fn plan(n: u32) -> u32 {
    n + 1
}

/// Read only by this crate's own tests: dead.
pub fn tested_only(n: u32) -> u32 {
    n * 2
}

/// Excused, but the allow names no reader: the allow is a finding.
// chronus-lint: allow(dead-pub) — kept for later
pub fn excused_without_reader() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubles() {
        assert_eq!(tested_only(2), 4);
        assert_eq!(reexported_only(), 7);
    }
}
