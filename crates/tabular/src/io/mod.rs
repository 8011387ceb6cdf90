//! Payload format readers and writers.
//!
//! The platform "recognizes popular data payload formats such as CSV, AVRO,
//! XML and JSON documents" (§3.2). Each submodule implements one format
//! from scratch:
//!
//! * [`cells`] — the typed cell writer behind every JSON body and CSV
//!   file.
//! * [`csv`] — RFC-4180-style CSV with quoting, configurable separator.
//! * [`json`] — a full JSON parser plus the `=>` path-mapping used by data
//!   sections (`location => user.location`).
//! * [`xml`] — a small well-formed-subset XML reader mapping repeated
//!   record elements to rows.
//! * [`record`] — a compact length-prefixed binary row format standing in
//!   for Avro (schema header + typed cells), with full round-tripping.

pub mod cells;
pub mod csv;
pub mod json;
pub mod record;
pub mod xml;

pub use cells::{CellWriter, Dialect};
pub use csv::{read_csv, write_csv, CsvOptions};
pub use json::{parse_json, read_json_records, JsonValue, PathMapping};
pub use record::{read_records, write_records};
pub use xml::read_xml_records;
