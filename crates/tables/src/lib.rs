//! # autotype-tables — column-type detection over web tables (§9)
//!
//! The application experiment of the paper: run synthesized type-detection
//! logic over a large corpus of web-table columns and compare against the
//! KW (header keyword) and REGEX (Potter's Wheel pattern) baselines.
//!
//! [`corpus`] generates a synthetic column population matching Table 2's
//! per-type counts and failure modes; [`regex`] implements the pattern
//! inference baseline; [`detect`] implements the three detection methods
//! and the precision / pooled-recall / F-score bookkeeping.

pub mod corpus;
pub mod detect;
pub mod regex;

pub use corpus::{generate_columns, Column, TableConfig, PAPER_TYPE_COUNTS};
pub use detect::{
    column_passes, correct_columns, detect_by_header, detect_by_pattern, detect_by_values_mut,
    score_type, Detection, TypeOutcome, ValueDetectorMut, VALUE_THRESHOLD,
};
pub use regex::{infer_pattern, InferredPattern, PTok};
