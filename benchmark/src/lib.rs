//! Shared pieces of the fepia benchmark: a minimal JSON reader and the
//! order statistics behind every reported median, quartile and verdict.

pub mod json;
pub mod measure;
