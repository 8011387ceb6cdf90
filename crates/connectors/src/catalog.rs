//! The [`Catalog`]: connector + format registries and the resolution path
//! from a flow-file data-object configuration to a [`Table`].

use crate::connector::{infer_protocol, Connector, FetchRequest, Payload};
use crate::error::{ConnectorError, Result};
use crate::file::{normalize, DataFolder, FileConnector};
use crate::format::{CsvFormat, DataFormat, FormatSpec, JsonFormat, RecordFormat, XmlFormat};
use crate::ftp::FtpSimConnector;
use crate::http::HttpSimConnector;
use crate::jdbc::JdbcSimConnector;
use parking_lot::{Lru, Mutex, RwLock};
use shareinsights_tabular::Table;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A data-object configuration, decoupled from the flowfile crate's AST so
/// the connector layer stays independent (the engine converts between the
/// two).
#[derive(Debug, Clone, Default)]
pub struct DataObjectConfig {
    /// Declared columns (bare names).
    pub columns: Vec<String>,
    /// Optional `=>` paths aligned with `columns`.
    pub paths: Vec<Option<String>>,
    /// `source:` string.
    pub source: Option<String>,
    /// Explicit `protocol:`; inferred from `source` when absent.
    pub protocol: Option<String>,
    /// Explicit `format:`; inferred from the payload hint when absent.
    pub format: Option<String>,
    /// CSV `separator:`.
    pub separator: Option<char>,
    /// XML `record_element:`.
    pub record_element: Option<String>,
    /// `request_type:` for HTTP.
    pub request_type: Option<String>,
    /// `http_headers:`.
    pub headers: BTreeMap<String, String>,
    /// Extra connector parameters (e.g. `query:` for JDBC).
    pub params: BTreeMap<String, String>,
}

/// What shaped one decode: the versioned source it read and everything
/// the decoder was told. Two data objects over one file that declare
/// different columns, a different separator or a different format are
/// different keys.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct DecodeKey {
    protocol: String,
    source: String,
    format: String,
    spec: FormatSpec,
}

/// Decoded tables the memo may hold, and their total approximate size.
/// An author's dashboard reads a handful of uploaded files of a few MB
/// decoded; past the bound the least recently run source is decoded again.
const MEMO_ENTRIES: usize = 32;
const MEMO_BYTES: usize = 64 << 20;

type DecodeMemo = Lru<DecodeKey, Table>;

/// A resolved source: the table, and how it was come by.
#[derive(Debug, Clone)]
pub struct Loaded {
    /// The decoded (or connector-structured) table.
    pub table: Table,
    /// The version of the payload the table was decoded from, when its
    /// connector names one (uploaded files do; live services do not).
    pub version: Option<u64>,
    /// The table was decoded by an earlier load of this version.
    pub memo_hit: bool,
}

/// Registries of connectors and formats — the extension surface of §4.2.
///
/// Clones share the registries, the data folder and the decode memo.
#[derive(Clone)]
pub struct Catalog {
    connectors: Arc<RwLock<BTreeMap<String, Arc<dyn Connector>>>>,
    formats: Arc<RwLock<BTreeMap<String, Arc<dyn DataFormat>>>>,
    /// Tables decoded from versioned payloads, stamped with the version:
    /// an author re-running an edited flow re-decodes only what was
    /// re-uploaded. See [`Catalog::load_described`].
    memo: Arc<Mutex<DecodeMemo>>,
    /// Connectors and formats registered so far (see
    /// [`Catalog::registrations`]).
    registrations: Arc<AtomicU64>,
    folder: DataFolder,
    http: HttpSimConnector,
    ftp: FtpSimConnector,
    jdbc: JdbcSimConnector,
}

impl Default for Catalog {
    fn default() -> Self {
        Self::new()
    }
}

impl Catalog {
    /// A catalog with all built-in connectors and formats registered.
    pub fn new() -> Self {
        let folder = DataFolder::new();
        let http = HttpSimConnector::new();
        let ftp = FtpSimConnector::new();
        let jdbc = JdbcSimConnector::new();
        let cat = Catalog {
            connectors: Arc::new(RwLock::new(BTreeMap::new())),
            formats: Arc::new(RwLock::new(BTreeMap::new())),
            memo: Arc::new(Mutex::new(Lru::weighted(
                MEMO_ENTRIES,
                MEMO_BYTES,
                |_, table: &Table| table.approx_bytes(),
            ))),
            registrations: Arc::new(AtomicU64::new(0)),
            folder: folder.clone(),
            http: http.clone(),
            ftp: ftp.clone(),
            jdbc: jdbc.clone(),
        };
        cat.register_connector(Arc::new(FileConnector::new(folder)));
        cat.register_connector(Arc::new(http));
        cat.register_connector(Arc::new(ftp));
        cat.register_connector(Arc::new(jdbc));
        cat.register_format(Arc::new(CsvFormat));
        cat.register_format(Arc::new(JsonFormat));
        cat.register_format(Arc::new(XmlFormat));
        cat.register_format(Arc::new(RecordFormat));
        cat
    }

    /// Register (or replace) a connector — the Connectors extension API.
    /// Tables decoded from an earlier connector's payloads are forgotten:
    /// the new one numbers its versions on its own.
    pub fn register_connector(&self, connector: Arc<dyn Connector>) {
        self.connectors
            .write()
            .insert(connector.protocol().to_string(), connector);
        self.registered();
    }

    /// Register (or replace) a format — the Data formats extension API.
    /// Tables an earlier decoder of that name produced are forgotten.
    pub fn register_format(&self, format: Arc<dyn DataFormat>) {
        self.formats
            .write()
            .insert(format.name().to_string(), format);
        self.registered();
    }

    fn registered(&self) {
        self.registrations.fetch_add(1, Ordering::SeqCst);
        self.memo.lock().clear();
    }

    /// How many connectors and formats have been registered, built-ins
    /// included. Anything kept from a decode is stale once this moves: a
    /// replaced decoder turns the same upload into another table, a
    /// replaced connector numbers its versions afresh.
    pub fn registrations(&self) -> u64 {
        self.registrations.load(Ordering::SeqCst)
    }

    /// Registered protocol names.
    pub fn protocols(&self) -> Vec<String> {
        self.connectors.read().keys().cloned().collect()
    }

    /// Registered format names.
    pub fn formats(&self) -> Vec<String> {
        self.formats.read().keys().cloned().collect()
    }

    /// The dashboard data folder served by the file connector.
    pub fn data_folder(&self) -> &DataFolder {
        &self.folder
    }

    /// The simulated HTTP service (register fixture routes here).
    pub fn http(&self) -> &HttpSimConnector {
        &self.http
    }

    /// The simulated FTP service.
    pub fn ftp(&self) -> &FtpSimConnector {
        &self.ftp
    }

    /// The simulated JDBC service.
    pub fn jdbc(&self) -> &JdbcSimConnector {
        &self.jdbc
    }

    /// Resolve a data-object configuration to a table: pick the connector,
    /// fetch, pick the decoder, decode against the declared schema.
    pub fn load(&self, cfg: &DataObjectConfig) -> Result<Table> {
        self.load_described(cfg).map(|loaded| loaded.table)
    }

    /// [`Catalog::load`], also saying how the table was come by.
    ///
    /// A payload that names its version — a file in the data folder — is
    /// decoded once per upload: the table is kept under the source path
    /// and everything that shaped the decode (format, declared columns and
    /// paths, separator, record element), stamped with the version. A
    /// re-upload, with the same bytes or not, bumps the version, and the
    /// next load decodes again. HTTP, FTP and JDBC sources are live
    /// services: fetched and decoded on every load, never kept.
    pub fn load_described(&self, cfg: &DataObjectConfig) -> Result<Loaded> {
        let source = cfg.source.as_deref().ok_or_else(|| {
            ConnectorError::BadConfig("data object has no 'source:' configured".into())
        })?;
        let protocol = cfg
            .protocol
            .clone()
            .unwrap_or_else(|| infer_protocol(source).to_string());
        let connector = self
            .connectors
            .read()
            .get(&protocol)
            .cloned()
            .ok_or_else(|| ConnectorError::UnknownProtocol(protocol.clone()))?;

        let request = FetchRequest {
            source: source.to_string(),
            request_type: cfg.request_type.clone(),
            headers: cfg.headers.clone(),
            params: cfg.params.clone(),
        };
        let (data, format_hint, version) = match connector.fetch(&request)? {
            Payload::Table(t) => {
                let table = if cfg.columns.is_empty() {
                    t
                } else {
                    t.project(&cfg.columns)?
                };
                return Ok(Loaded {
                    table,
                    version: None,
                    memo_hit: false,
                });
            }
            Payload::Bytes {
                data,
                format_hint,
                version,
            } => (data, format_hint, version),
        };
        let format_name = cfg.format.clone().or(format_hint).ok_or_else(|| {
            ConnectorError::BadConfig(format!(
                "cannot determine format for '{source}'; set 'format:'"
            ))
        })?;
        let format = self
            .formats
            .read()
            .get(&format_name)
            .cloned()
            .ok_or_else(|| ConnectorError::UnknownFormat(format_name.clone()))?;
        let spec = FormatSpec {
            columns: cfg.columns.clone(),
            paths: if cfg.paths.len() == cfg.columns.len() {
                cfg.paths.clone()
            } else {
                vec![None; cfg.columns.len()]
            },
            separator: cfg.separator,
            has_header: true,
            record_element: cfg.record_element.clone(),
        };
        let Some(version) = version else {
            return Ok(Loaded {
                table: format.decode(&data, &spec)?,
                version: None,
                memo_hit: false,
            });
        };
        let key = DecodeKey {
            protocol,
            source: normalize(source),
            format: format_name,
            spec,
        };
        if let Some(table) = self.memo.lock().get(&key, version) {
            return Ok(Loaded {
                table,
                version: Some(version),
                memo_hit: true,
            });
        }
        let table = format.decode(&data, &key.spec)?;
        self.memo.lock().put(key, version, table.clone());
        Ok(Loaded {
            table,
            version: Some(version),
            memo_hit: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareinsights_tabular::row;

    #[test]
    fn loads_csv_from_data_folder() {
        // The figure-4 configuration: csv file in the dashboard data folder.
        let cat = Catalog::new();
        cat.data_folder()
            .put_text("stackoverflow.csv", "p,q,a,t\npig,1,2,big\n");
        let cfg = DataObjectConfig {
            columns: vec![
                "project".into(),
                "question".into(),
                "answer".into(),
                "tags".into(),
            ],
            source: Some("stackoverflow.csv".into()),
            format: Some("csv".into()),
            separator: Some(','),
            ..Default::default()
        };
        let t = cat.load(&cfg).unwrap();
        assert_eq!(
            t.schema().names(),
            vec!["project", "question", "answer", "tags"]
        );
        assert_eq!(t.num_rows(), 1);
    }

    #[test]
    fn loads_json_api_with_headers() {
        // The figure-6 configuration: provider API with X-Access-Key.
        let cat = Catalog::new();
        cat.http().route_with_auth(
            "https://api.stackexchange.com/2.2/questions",
            &[("X-Access-Key", "XXX")],
            r#"{"items": [{"title": "how to pig", "tags": ["pig"]}]}"#,
            Some("json"),
        );
        let mut cfg = DataObjectConfig {
            columns: vec!["question".into(), "tags".into()],
            paths: vec![Some("title".into()), Some("tags".into())],
            source: Some(
                "https://api.stackexchange.com/2.2/questions?order=desc&site=stackoverflow".into(),
            ),
            protocol: Some("http".into()),
            format: Some("json".into()),
            request_type: Some("get".into()),
            ..Default::default()
        };
        cfg.headers.insert("X-Access-Key".into(), "XXX".into());
        let t = cat.load(&cfg).unwrap();
        assert_eq!(t.value(0, "question").unwrap().to_string(), "how to pig");

        cfg.headers.clear();
        assert!(cat.load(&cfg).is_err(), "auth enforced");
    }

    #[test]
    fn loads_jdbc_table_with_projection() {
        let cat = Catalog::new();
        cat.jdbc().put_table(
            "db",
            "t",
            Table::from_rows(&["a", "b"], &[row![1i64, 2i64]]).unwrap(),
        );
        let cfg = DataObjectConfig {
            columns: vec!["b".into()],
            source: Some("jdbc:si://db/t".into()),
            ..Default::default()
        };
        let t = cat.load(&cfg).unwrap();
        assert_eq!(t.schema().names(), vec!["b"]);
    }

    #[test]
    fn protocol_and_format_inference() {
        let cat = Catalog::new();
        cat.data_folder().put_text("d.csv", "x\n5\n");
        let cfg = DataObjectConfig {
            source: Some("d.csv".into()),
            ..Default::default()
        };
        let t = cat.load(&cfg).unwrap();
        assert_eq!(t.value(0, "x").unwrap().as_int(), Some(5));
    }

    #[test]
    fn missing_source_and_unknown_names() {
        let cat = Catalog::new();
        assert!(cat.load(&DataObjectConfig::default()).is_err());
        let cfg = DataObjectConfig {
            source: Some("x".into()),
            protocol: Some("gopher".into()),
            ..Default::default()
        };
        assert!(matches!(
            cat.load(&cfg),
            Err(ConnectorError::UnknownProtocol(_))
        ));
        cat.data_folder().put_text("noext", "a\n1\n");
        let cfg = DataObjectConfig {
            source: Some("noext".into()),
            ..Default::default()
        };
        assert!(cat.load(&cfg).unwrap_err().to_string().contains("format"));
    }

    #[test]
    fn custom_format_extension() {
        // §4.2: users can bring their own data formats.
        struct UpperCsv;
        impl DataFormat for UpperCsv {
            fn name(&self) -> &str {
                "uppercsv"
            }
            fn decode(&self, bytes: &[u8], spec: &FormatSpec) -> Result<Table> {
                let text = std::str::from_utf8(bytes)
                    .map_err(|_| ConnectorError::Decode("utf8".into()))?
                    .to_uppercase();
                CsvFormat.decode(text.as_bytes(), spec)
            }
        }
        let cat = Catalog::new();
        cat.register_format(Arc::new(UpperCsv));
        cat.data_folder().put_text("x.custom", "name\npig\n");
        let cfg = DataObjectConfig {
            source: Some("x.custom".into()),
            format: Some("uppercsv".into()),
            ..Default::default()
        };
        let t = cat.load(&cfg).unwrap();
        assert_eq!(t.value(0, "NAME").unwrap().to_string(), "PIG");
    }

    fn csv_object(source: &str, columns: &[&str], separator: Option<char>) -> DataObjectConfig {
        DataObjectConfig {
            columns: columns.iter().map(|c| c.to_string()).collect(),
            source: Some(source.into()),
            format: Some("csv".into()),
            separator,
            ..Default::default()
        }
    }

    #[test]
    fn what_shaped_the_decode_is_part_of_the_memo_key() {
        // Two data objects over one file: other declared columns, or
        // another separator, are another decode.
        let cat = Catalog::new();
        cat.data_folder().put_text("t.csv", "a;b,c\n1;2,3\n");
        let by_comma = csv_object("t.csv", &["left", "right"], Some(','));
        let renamed = csv_object("./t.csv", &["x", "y"], Some(','));
        let by_semicolon = csv_object("t.csv", &["left", "right"], Some(';'));
        for cfg in [&by_comma, &renamed, &by_semicolon] {
            assert!(!cat.load_described(cfg).unwrap().memo_hit);
        }
        let loaded = cat.load_described(&by_comma).unwrap();
        assert!(loaded.memo_hit);
        assert_eq!(loaded.table.value(0, "left").unwrap().to_string(), "1;2");
        let loaded = cat.load_described(&renamed).unwrap();
        assert!(loaded.memo_hit);
        assert_eq!(loaded.table.schema().names(), vec!["x", "y"]);
        let loaded = cat.load_described(&by_semicolon).unwrap();
        assert!(loaded.memo_hit);
        assert_eq!(loaded.table.value(0, "right").unwrap().to_string(), "2,3");
        // Catalog clones share the memo; a replaced decoder empties it.
        assert!(cat.clone().load_described(&by_comma).unwrap().memo_hit);
        cat.register_format(Arc::new(CsvFormat));
        assert!(!cat.load_described(&by_comma).unwrap().memo_hit);
    }

    #[test]
    fn live_sources_are_fetched_and_decoded_every_time() {
        let cat = Catalog::new();
        cat.http()
            .route("https://api.example.com/rows", "a\n1\n", Some("csv"));
        cat.ftp().host("h").put_text("rows.csv", "a\n1\n");
        for source in ["https://api.example.com/rows", "ftp://h/rows.csv"] {
            let cfg = DataObjectConfig {
                source: Some(source.into()),
                ..Default::default()
            };
            for _ in 0..3 {
                let loaded = cat.load_described(&cfg).unwrap();
                assert_eq!((loaded.version, loaded.memo_hit), (None, false), "{source}");
            }
        }
        assert_eq!(cat.http().requests_served(), 3);
    }

    #[test]
    fn eviction_never_serves_a_stale_table() {
        // More files than the memo holds, each loaded, then each
        // re-uploaded with other rows: whether an entry was evicted or
        // only went stale, the next load decodes the new bytes.
        let cat = Catalog::new();
        let files = MEMO_ENTRIES + 8;
        let cfg = |i: usize| csv_object(&format!("f{i}.csv"), &["v"], None);
        let cell = |loaded: &Loaded| loaded.table.value(0, "v").unwrap().as_int();
        for i in 0..files {
            cat.data_folder()
                .put_text(format!("f{i}.csv"), format!("v\n{i}\n"));
            assert_eq!(cell(&cat.load_described(&cfg(i)).unwrap()), Some(i as i64));
        }
        // The oldest were evicted, the newest are held.
        assert!(!cat.load_described(&cfg(0)).unwrap().memo_hit);
        assert!(cat.load_described(&cfg(files - 1)).unwrap().memo_hit);
        for i in 0..files {
            cat.data_folder()
                .put_text(format!("f{i}.csv"), format!("v\n{}\n", i + 1000));
        }
        for i in 0..files {
            let loaded = cat.load_described(&cfg(i)).unwrap();
            assert!(!loaded.memo_hit, "file {i} was re-uploaded");
            assert_eq!(cell(&loaded), Some(i as i64 + 1000));
        }
    }
}
