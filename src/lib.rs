//! Workspace umbrella crate for examples and integration tests.

#![forbid(unsafe_code)]
