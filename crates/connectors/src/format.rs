//! Data-format decoders — §4.2's "Data formats API".
//!
//! A [`DataFormat`] turns raw payload bytes plus the data object's schema
//! declaration into a [`Table`]. The built-ins wrap the readers in
//! `shareinsights_tabular::io`; extensions register additional
//! implementations on the [`crate::Catalog`].

use crate::error::{ConnectorError, Result};
use shareinsights_tabular::io::csv::{read_csv, CsvOptions};
use shareinsights_tabular::io::json::{read_json_records, PathMapping};
use shareinsights_tabular::io::record::read_records;
use shareinsights_tabular::io::xml::read_xml_records;
use shareinsights_tabular::Table;

/// Decode-time hints extracted from the data object's configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FormatSpec {
    /// Declared column names (schema list in the D section). Empty = take
    /// whatever the payload provides.
    pub columns: Vec<String>,
    /// `column => path` mappings for hierarchical payloads; aligned with
    /// `columns` (None for plain names).
    pub paths: Vec<Option<String>>,
    /// CSV separator (`separator: ','`).
    pub separator: Option<char>,
    /// Whether the CSV payload carries a header row (default true).
    pub has_header: bool,
    /// Record element name for XML payloads (`record_element: project`).
    pub record_element: Option<String>,
}

impl FormatSpec {
    /// Spec with declared plain columns.
    pub fn with_columns(names: &[&str]) -> Self {
        FormatSpec {
            columns: names.iter().map(|s| s.to_string()).collect(),
            paths: vec![None; names.len()],
            has_header: true,
            ..Default::default()
        }
    }

    /// The JSON path mapping implied by the schema declaration: explicit
    /// paths where given, same-named paths otherwise.
    pub fn path_mapping(&self) -> PathMapping {
        PathMapping::new(
            self.columns
                .iter()
                .zip(&self.paths)
                .map(|(c, p)| (c.clone(), p.clone().unwrap_or_else(|| c.clone())))
                .collect(),
        )
    }
}

impl Default for FormatSpec {
    fn default() -> Self {
        FormatSpec {
            columns: Vec::new(),
            paths: Vec::new(),
            separator: None,
            has_header: true,
            record_element: None,
        }
    }
}

/// A payload decoder.
pub trait DataFormat: Send + Sync {
    /// Registered format name (`csv`, `json`, `xml`, `record`).
    fn name(&self) -> &str;

    /// Decode bytes to a table.
    fn decode(&self, bytes: &[u8], spec: &FormatSpec) -> Result<Table>;
}

fn utf8(bytes: &[u8]) -> Result<&str> {
    std::str::from_utf8(bytes).map_err(|_| ConnectorError::Decode("payload is not UTF-8".into()))
}

/// CSV decoder.
pub struct CsvFormat;

impl DataFormat for CsvFormat {
    fn name(&self) -> &str {
        "csv"
    }

    fn decode(&self, bytes: &[u8], spec: &FormatSpec) -> Result<Table> {
        let opts = CsvOptions {
            separator: spec.separator.unwrap_or(','),
            has_header: spec.has_header,
            column_names: if spec.columns.is_empty() {
                None
            } else {
                Some(spec.columns.clone())
            },
            infer_types: true,
        };
        Ok(read_csv(utf8(bytes)?, &opts)?)
    }
}

/// JSON decoder (array / NDJSON / `items` layouts, `=>` path mapping).
pub struct JsonFormat;

impl DataFormat for JsonFormat {
    fn name(&self) -> &str {
        "json"
    }

    fn decode(&self, bytes: &[u8], spec: &FormatSpec) -> Result<Table> {
        if spec.columns.is_empty() {
            return Err(ConnectorError::BadConfig(
                "json payloads need a declared schema (the column list tells the reader which paths to extract)".into(),
            ));
        }
        Ok(read_json_records(utf8(bytes)?, &spec.path_mapping())?)
    }
}

/// XML decoder.
pub struct XmlFormat;

impl DataFormat for XmlFormat {
    fn name(&self) -> &str {
        "xml"
    }

    fn decode(&self, bytes: &[u8], spec: &FormatSpec) -> Result<Table> {
        let record = spec.record_element.as_deref().unwrap_or("record");
        let table = read_xml_records(utf8(bytes)?, record)?;
        if spec.columns.is_empty() {
            Ok(table)
        } else {
            // Project/reorder to the declared schema.
            Ok(table.project(&spec.columns)?)
        }
    }
}

/// Binary record decoder (the Avro stand-in).
pub struct RecordFormat;

impl DataFormat for RecordFormat {
    fn name(&self) -> &str {
        "record"
    }

    fn decode(&self, bytes: &[u8], spec: &FormatSpec) -> Result<Table> {
        let table = read_records(bytes)?;
        if spec.columns.is_empty() {
            Ok(table)
        } else {
            Ok(table.project(&spec.columns)?)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareinsights_tabular::row;

    #[test]
    fn csv_with_declared_columns() {
        let spec = FormatSpec::with_columns(&["p", "q"]);
        let t = CsvFormat
            .decode(b"project,question\npig,42\n", &spec)
            .unwrap();
        assert_eq!(t.schema().names(), vec!["p", "q"]);
        assert_eq!(t.num_rows(), 1);
    }

    #[test]
    fn csv_custom_separator_no_schema() {
        let spec = FormatSpec {
            separator: Some('|'),
            has_header: true,
            ..Default::default()
        };
        let t = CsvFormat.decode(b"a|b\n1|2\n", &spec).unwrap();
        assert_eq!(t.schema().names(), vec!["a", "b"]);
    }

    #[test]
    fn json_needs_schema() {
        let err = JsonFormat
            .decode(b"[]", &FormatSpec::default())
            .unwrap_err();
        assert!(err.to_string().contains("declared schema"));
    }

    #[test]
    fn json_with_paths() {
        let mut spec = FormatSpec::with_columns(&["body", "loc"]);
        spec.paths = vec![Some("text".into()), Some("user.location".into())];
        let t = JsonFormat
            .decode(br#"[{"text": "hi", "user": {"location": "Pune"}}]"#, &spec)
            .unwrap();
        assert_eq!(t.value(0, "loc").unwrap().to_string(), "Pune");
    }

    #[test]
    fn xml_with_record_element() {
        let spec = FormatSpec {
            record_element: Some("row".into()),
            ..Default::default()
        };
        let t = XmlFormat
            .decode(b"<r><row><a>1</a></row><row><a>2</a></row></r>", &spec)
            .unwrap();
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn record_roundtrip_through_format() {
        let t = Table::from_rows(&["x"], &[row![1i64]]).unwrap();
        let bytes = shareinsights_tabular::io::record::write_records(&t);
        let back = RecordFormat.decode(&bytes, &FormatSpec::default()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn non_utf8_rejected() {
        let err = CsvFormat
            .decode(&[0xFF, 0xFE, 0x00], &FormatSpec::default())
            .unwrap_err();
        assert!(err.to_string().contains("UTF-8"));
    }
}
