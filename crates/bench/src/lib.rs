//! Support library for the `repro` experiment harness: output formatting
//! and CSV writing for the binary, plus the `pls-bench compare`
//! regression gate's arithmetic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod oracle;
pub mod output;
