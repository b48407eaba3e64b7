//! TCBF-U001 fixture: the library of crate `demo`, whose `pub` names a
//! caller in another crate also binds as locals.

/// Named outside `demo` only as a type path.
pub struct Shape;

impl Shape {
    /// Its only namesake outside `demo` is a closure: a finding.
    pub fn supported(&self) -> bool {
        true
    }

    /// Its only namesake outside `demo` is a fn parameter: a finding.
    pub fn limit() -> usize {
        8
    }

    /// Its only namesake outside `demo` is a `let` binding: a finding.
    pub fn area(&self) -> usize {
        8
    }

    /// Called as a method by a caller that also binds a local `rows`.
    pub fn rows(&self) -> usize {
        4
    }

    /// Called through its path by a caller that also binds a local `cols`.
    pub fn cols() -> usize {
        2
    }
}
