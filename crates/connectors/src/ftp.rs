//! Simulated FTP connector: per-host in-memory file trees addressed as
//! `ftp://host/path`.

use crate::connector::{infer_format_from_source, Connector, FetchRequest, Payload};
use crate::error::{ConnectorError, Result};
use crate::file::DataFolder;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A deterministic in-process FTP service.
#[derive(Clone, Default)]
pub struct FtpSimConnector {
    hosts: Arc<RwLock<BTreeMap<String, DataFolder>>>,
}

impl FtpSimConnector {
    /// Empty service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get (creating) the folder for a host.
    pub fn host(&self, host: &str) -> DataFolder {
        self.hosts
            .write()
            .entry(host.to_string())
            .or_default()
            .clone()
    }

    fn split_url(url: &str) -> Result<(String, String)> {
        let rest = url
            .strip_prefix("ftp://")
            .ok_or_else(|| ConnectorError::BadConfig(format!("not an ftp url: '{url}'")))?;
        let (host, path) = rest
            .split_once('/')
            .ok_or_else(|| ConnectorError::BadConfig(format!("ftp url missing path: '{url}'")))?;
        if host.is_empty() || path.is_empty() {
            return Err(ConnectorError::BadConfig(format!(
                "ftp url malformed: '{url}'"
            )));
        }
        Ok((host.to_string(), path.to_string()))
    }
}

impl Connector for FtpSimConnector {
    fn protocol(&self) -> &str {
        "ftp"
    }

    fn fetch(&self, request: &FetchRequest) -> Result<Payload> {
        let (host, path) = Self::split_url(&request.source)?;
        let hosts = self.hosts.read();
        let folder = hosts.get(&host).ok_or_else(|| ConnectorError::NotFound {
            protocol: "ftp".into(),
            source: request.source.clone(),
        })?;
        match folder.get(&path) {
            Some(data) => Ok(Payload::Bytes {
                data,
                format_hint: infer_format_from_source(&path).map(str::to_string),
                version: None,
            }),
            None => Err(ConnectorError::NotFound {
                protocol: "ftp".into(),
                source: request.source.clone(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_from_host_tree() {
        let ftp = FtpSimConnector::new();
        ftp.host("warehouse.example.com")
            .put_text("exports/sales.csv", "a,b\n1,2\n");
        let p = ftp
            .fetch(&FetchRequest::for_source(
                "ftp://warehouse.example.com/exports/sales.csv",
            ))
            .unwrap();
        match p {
            Payload::Bytes {
                data, format_hint, ..
            } => {
                assert_eq!(&*data, b"a,b\n1,2\n");
                assert_eq!(format_hint.as_deref(), Some("csv"));
            }
            _ => panic!("expected bytes"),
        }
    }

    #[test]
    fn unknown_host_or_path() {
        let ftp = FtpSimConnector::new();
        ftp.host("h").put_text("x.csv", "a\n");
        assert!(matches!(
            ftp.fetch(&FetchRequest::for_source("ftp://other/x.csv")),
            Err(ConnectorError::NotFound { .. })
        ));
        assert!(matches!(
            ftp.fetch(&FetchRequest::for_source("ftp://h/missing.csv")),
            Err(ConnectorError::NotFound { .. })
        ));
    }

    #[test]
    fn malformed_urls_rejected() {
        let ftp = FtpSimConnector::new();
        for bad in ["http://h/x", "ftp://", "ftp://hostonly", "ftp:///path"] {
            assert!(
                matches!(
                    ftp.fetch(&FetchRequest::for_source(bad)),
                    Err(ConnectorError::BadConfig(_))
                ),
                "{bad}"
            );
        }
    }
}
