//! # rv-stats — statistics toolkit for the RealVideo reproduction
//!
//! Every figure in the paper is either a CDF ([`Cdf`]), a categorical bar
//! chart ([`CategoryCount`]), or a scatter with a trend
//! ([`CoMoments::pearson`], [`CoMoments::slope`]). This crate provides
//! those primitives plus the text rendering ([`table`], [`bar_chart`],
//! [`cdf_plot`]) the `repro` binary prints them with.
//!
//! The campaign folds sessions as they finish, so what it accumulates is
//! the [`sketch`] module's streaming types ([`QuantileSketch`],
//! [`FixedSum`], [`CoMoments`]) and [`CategoryCount`], all with bitwise
//! merge-order independence; [`Cdf`] and [`Summary`] are read-side views
//! over a retained sample set.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdf;
mod histogram;
mod render;
pub mod sketch;
mod summary;

pub use cdf::Cdf;
pub use histogram::CategoryCount;
pub use render::{bar_chart, cdf_plot, series_columns, table, Grid};
pub use sketch::{CoMoments, FixedSum, QuantileSketch};
pub use summary::Summary;
