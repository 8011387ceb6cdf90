//! File connector over a dashboard's data folder.
//!
//! §4.3.2: "users can upload dashboard data to a 'data' folder. All data
//! files in this folder can be referred in the data object configuration
//! using relative paths from this data folder." [`DataFolder`] is that
//! folder — in-memory for determinism, loadable from a real directory when
//! examples want disk fixtures.

use crate::connector::{infer_format_from_source, Connector, FetchRequest, Payload};
use crate::error::{ConnectorError, Result};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One stored file: its bytes, shared with every reader, and the version
/// the upload that stored them was given.
#[derive(Debug, Clone)]
struct StoredFile {
    bytes: Arc<[u8]>,
    version: u64,
}

#[derive(Debug, Default)]
struct Files {
    by_path: BTreeMap<String, StoredFile>,
    /// Uploads so far; the next one's version.
    uploads: u64,
}

/// An in-memory file tree: relative path → bytes. Cheap to clone (shared).
///
/// Every `put_*` gives the file a version no earlier upload to this folder
/// had — also when it stores the same bytes again — so "this path at this
/// version" names one immutable byte string, which is what lets the
/// catalog keep the table it decoded from it.
#[derive(Debug, Clone, Default)]
pub struct DataFolder {
    files: Arc<RwLock<Files>>,
}

impl DataFolder {
    /// Empty folder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store a text file.
    pub fn put_text(&self, path: impl Into<String>, content: impl Into<String>) {
        self.put_bytes(path, content.into().into_bytes());
    }

    /// Store a binary file.
    pub fn put_bytes(&self, path: impl Into<String>, content: impl Into<Arc<[u8]>>) {
        let mut files = self.files.write();
        files.uploads += 1;
        let stored = StoredFile {
            bytes: content.into(),
            version: files.uploads,
        };
        files.by_path.insert(normalize(&path.into()), stored);
    }

    /// Fetch a file's bytes (shared, not copied).
    pub fn get(&self, path: &str) -> Option<Arc<[u8]>> {
        self.get_versioned(path).map(|(bytes, _)| bytes)
    }

    /// Fetch a file's bytes with the version of the upload that stored
    /// them.
    pub fn get_versioned(&self, path: &str) -> Option<(Arc<[u8]>, u64)> {
        let files = self.files.read();
        let file = files.by_path.get(&normalize(path))?;
        Some((Arc::clone(&file.bytes), file.version))
    }

    /// Uploads so far: moves with every `put_*`, so whatever was computed
    /// from the folder's contents is current while it stays put.
    pub fn uploads(&self) -> u64 {
        self.files.read().uploads
    }

    /// List stored paths.
    pub fn list(&self) -> Vec<String> {
        self.files.read().by_path.keys().cloned().collect()
    }

    /// Number of stored files.
    pub fn len(&self) -> usize {
        self.files.read().by_path.len()
    }

    /// True when no files are stored.
    pub fn is_empty(&self) -> bool {
        self.files.read().by_path.is_empty()
    }
}

/// The key a path is stored under.
pub(crate) fn normalize(path: &str) -> String {
    path.trim().trim_start_matches("./").to_string()
}

/// Connector serving `protocol: file` data objects from a [`DataFolder`].
#[derive(Debug, Clone)]
pub struct FileConnector {
    folder: DataFolder,
}

impl FileConnector {
    /// Wrap a folder.
    pub fn new(folder: DataFolder) -> Self {
        FileConnector { folder }
    }

    /// The folder served.
    pub fn folder(&self) -> &DataFolder {
        &self.folder
    }
}

impl Connector for FileConnector {
    fn protocol(&self) -> &str {
        "file"
    }

    fn fetch(&self, request: &FetchRequest) -> Result<Payload> {
        match self.folder.get_versioned(&request.source) {
            Some((data, version)) => Ok(Payload::Bytes {
                data,
                format_hint: infer_format_from_source(&request.source).map(str::to_string),
                version: Some(version),
            }),
            None => Err(ConnectorError::NotFound {
                protocol: "file".into(),
                source: request.source.clone(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let folder = DataFolder::new();
        folder.put_text("stackoverflow.csv", "a,b\n1,2\n");
        folder.put_bytes("bin/data.rec", vec![1, 2, 3]);
        assert_eq!(folder.len(), 2);
        assert_eq!(&*folder.get("stackoverflow.csv").unwrap(), b"a,b\n1,2\n");
        assert_eq!(&*folder.get("./stackoverflow.csv").unwrap(), b"a,b\n1,2\n");
        assert!(folder.get("missing.csv").is_none());
        assert_eq!(folder.list(), vec!["bin/data.rec", "stackoverflow.csv"]);
    }

    #[test]
    fn every_upload_gets_a_new_version() {
        let folder = DataFolder::new();
        folder.put_text("a.csv", "x\n1\n");
        folder.put_text("b.csv", "x\n1\n");
        let (_, a1) = folder.get_versioned("a.csv").unwrap();
        let (_, b1) = folder.get_versioned("b.csv").unwrap();
        assert_ne!(a1, b1);
        // The same bytes again are a new upload all the same.
        folder.put_text("./a.csv", "x\n1\n");
        let (bytes, a2) = folder.get_versioned("a.csv").unwrap();
        assert!(a2 > a1 && a2 > b1);
        assert_eq!(&*bytes, b"x\n1\n");
        assert_eq!(folder.get_versioned("b.csv").unwrap().1, b1, "b untouched");
    }

    #[test]
    fn clones_share_storage() {
        let a = DataFolder::new();
        let b = a.clone();
        a.put_text("x", "1");
        assert!(b.get("x").is_some(), "clone sees writes");
    }

    #[test]
    fn connector_fetch_with_hint() {
        let folder = DataFolder::new();
        folder.put_text("data/tweets.json", "{}");
        let c = FileConnector::new(folder);
        assert_eq!(c.protocol(), "file");
        match c
            .fetch(&FetchRequest::for_source("data/tweets.json"))
            .unwrap()
        {
            Payload::Bytes {
                data,
                format_hint,
                version,
            } => {
                assert_eq!(&*data, b"{}");
                assert_eq!(format_hint.as_deref(), Some("json"));
                assert!(version.is_some(), "an uploaded file names its version");
            }
            _ => panic!("expected bytes"),
        }
        let err = c.fetch(&FetchRequest::for_source("nope.csv")).unwrap_err();
        assert!(matches!(err, ConnectorError::NotFound { .. }));
    }
}
