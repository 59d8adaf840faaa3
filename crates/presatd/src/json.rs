//! The daemon's JSON reader for untrusted request lines: the workspace's
//! one parser, [`presat_obs::json::Json`], re-exported under its old path.

pub use presat_obs::json::Json;
