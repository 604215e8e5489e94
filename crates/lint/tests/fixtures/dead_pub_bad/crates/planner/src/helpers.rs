/// Reachable only through the `pub use` in lib.rs: dead.
pub fn reexported_only() -> u32 {
    7
}
