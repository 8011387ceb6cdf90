//! The publish/shared-objects registry and flow-file groups.
//!
//! §3.4.1: "To make the data object available to other dashboards, specify
//! a name by which this data object will be referenced … The platform
//! searches for this data object — in the shared objects list — when
//! referenced in another dashboard." §4.5.3: the producing and consuming
//! dashboards "form a natural flow file group".

use parking_lot::RwLock;
use shareinsights_tabular::{Schema, Table};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One published data object.
#[derive(Debug, Clone)]
pub struct SharedObject {
    /// Public (published) name.
    pub publish_name: String,
    /// Producing dashboard.
    pub producer: String,
    /// The producer's local object name.
    pub local_name: String,
    /// Schema of the published data.
    pub schema: Schema,
    /// Latest materialised snapshot (None until the producer runs).
    pub snapshot: Option<Table>,
    /// Monotonically increasing data generation, bumped on every
    /// publish/refresh so downstream caches (the server's query-result
    /// cache, the platform's flow memo) can invalidate without being told:
    /// one generation names one snapshot.
    pub generation: u64,
}

#[derive(Debug, Default)]
struct RegistryInner {
    objects: BTreeMap<String, SharedObject>,
    /// publish name -> consuming dashboards.
    consumers: BTreeMap<String, BTreeSet<String>>,
}

/// The platform-wide shared-objects registry.
#[derive(Debug, Clone, Default)]
pub struct PublishRegistry {
    inner: Arc<RwLock<RegistryInner>>,
}

impl PublishRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish (or republish) an object. Re-publishing from the same
    /// producer updates schema/snapshot; from a different producer it is an
    /// error (names are platform-global).
    pub fn publish(
        &self,
        publish_name: &str,
        producer: &str,
        local_name: &str,
        schema: Schema,
        snapshot: Option<Table>,
    ) -> Result<(), String> {
        let mut inner = self.inner.write();
        let mut generation = 1;
        if let Some(existing) = inner.objects.get(publish_name) {
            if existing.producer != producer {
                return Err(format!(
                    "shared object '{publish_name}' is already published by dashboard '{}'",
                    existing.producer
                ));
            }
            generation += existing.generation;
        }
        inner.objects.insert(
            publish_name.to_string(),
            SharedObject {
                publish_name: publish_name.to_string(),
                producer: producer.to_string(),
                local_name: local_name.to_string(),
                schema,
                snapshot,
                generation,
            },
        );
        Ok(())
    }

    /// Update only the snapshot after a producer run.
    pub fn refresh_snapshot(&self, publish_name: &str, snapshot: Table) -> Result<(), String> {
        match self.inner.write().objects.get_mut(publish_name) {
            Some(obj) => {
                obj.schema = snapshot.schema().clone();
                obj.snapshot = Some(snapshot);
                obj.generation += 1;
                Ok(())
            }
            None => Err(format!("no shared object '{publish_name}'")),
        }
    }

    /// Look up a shared object, recording the consumer for group tracking.
    pub fn resolve(&self, publish_name: &str, consumer: &str) -> Option<SharedObject> {
        let mut inner = self.inner.write();
        if inner.objects.contains_key(publish_name) {
            inner
                .consumers
                .entry(publish_name.to_string())
                .or_default()
                .insert(consumer.to_string());
            inner.objects.get(publish_name).cloned()
        } else {
            None
        }
    }

    /// Peek without registering a consumer.
    pub fn get(&self, publish_name: &str) -> Option<SharedObject> {
        self.inner.read().objects.get(publish_name).cloned()
    }

    /// The schema of a shared object, without copying the object.
    pub fn schema(&self, publish_name: &str) -> Option<Schema> {
        let inner = self.inner.read();
        inner.objects.get(publish_name).map(|o| o.schema.clone())
    }

    /// All published names.
    pub fn names(&self) -> Vec<String> {
        self.inner.read().objects.keys().cloned().collect()
    }

    /// Data generation of a published object: 0 before the first publish,
    /// bumped by every publish/refresh. Query-result caches key on this to
    /// invalidate stale entries.
    pub fn generation(&self, publish_name: &str) -> u64 {
        self.inner
            .read()
            .objects
            .get(publish_name)
            .map_or(0, |o| o.generation)
    }

    /// The flow-file group around a published object: producer plus every
    /// consumer (§4.5.3).
    pub fn group_of(&self, publish_name: &str) -> Vec<String> {
        let inner = self.inner.read();
        let mut group = Vec::new();
        if let Some(obj) = inner.objects.get(publish_name) {
            group.push(obj.producer.clone());
        }
        if let Some(cons) = inner.consumers.get(publish_name) {
            for c in cons {
                if !group.contains(c) {
                    group.push(c.clone());
                }
            }
        }
        group
    }

    /// All flow-file groups: dashboards connected through shared objects
    /// (union-find over producer/consumer edges).
    pub fn groups(&self) -> Vec<Vec<String>> {
        let inner = self.inner.read();
        // Collect edges.
        let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (name, obj) in &inner.objects {
            adj.entry(obj.producer.as_str()).or_default();
            if let Some(cons) = inner.consumers.get(name) {
                for c in cons {
                    adj.entry(obj.producer.as_str()).or_default().insert(c);
                    adj.entry(c.as_str()).or_default().insert(&obj.producer);
                }
            }
        }
        // Connected components.
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut groups = Vec::new();
        for &start in adj.keys() {
            if seen.contains(start) {
                continue;
            }
            let mut component = Vec::new();
            let mut stack = vec![start];
            while let Some(n) = stack.pop() {
                if seen.insert(n) {
                    component.push(n.to_string());
                    if let Some(next) = adj.get(n) {
                        stack.extend(next.iter());
                    }
                }
            }
            component.sort();
            groups.push(component);
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareinsights_tabular::row;
    use shareinsights_tabular::DataType;

    fn schema() -> Schema {
        Schema::of(&[
            ("date", DataType::Utf8),
            ("player", DataType::Utf8),
            ("count", DataType::Int64),
        ])
    }

    #[test]
    fn publish_resolve_and_group() {
        let reg = PublishRegistry::new();
        reg.publish(
            "players_tweets",
            "ipl_processing",
            "players_tweets",
            schema(),
            None,
        )
        .unwrap();
        assert_eq!(reg.names(), vec!["players_tweets"]);

        let obj = reg.resolve("players_tweets", "ipl_dashboard").unwrap();
        assert_eq!(obj.producer, "ipl_processing");
        assert!(obj.snapshot.is_none());

        reg.resolve("players_tweets", "another_dashboard").unwrap();
        assert_eq!(
            reg.group_of("players_tweets"),
            vec!["ipl_processing", "another_dashboard", "ipl_dashboard"]
        );
    }

    #[test]
    fn snapshot_refresh() {
        let reg = PublishRegistry::new();
        reg.publish("p", "prod", "local", schema(), None).unwrap();
        let t = Table::from_rows(&["date", "player", "count"], &[row!["d", "x", 1i64]]).unwrap();
        reg.refresh_snapshot("p", t).unwrap();
        assert_eq!(reg.get("p").unwrap().snapshot.unwrap().num_rows(), 1);
        assert!(reg
            .refresh_snapshot("ghost", Table::from_rows(&["a"], &[]).unwrap())
            .is_err());
    }

    #[test]
    fn generations_bump_on_publish_and_refresh() {
        let reg = PublishRegistry::new();
        assert_eq!(reg.generation("p"), 0);
        reg.publish("p", "prod", "local", schema(), None).unwrap();
        assert_eq!(reg.generation("p"), 1);
        let t = Table::from_rows(&["date", "player", "count"], &[row!["d", "x", 1i64]]).unwrap();
        reg.refresh_snapshot("p", t).unwrap();
        assert_eq!(reg.generation("p"), 2);
        reg.publish("p", "prod", "local", schema(), None).unwrap();
        assert_eq!(reg.generation("p"), 3);
        // Failed cross-producer publish does not bump.
        assert!(reg.publish("p", "other", "x", schema(), None).is_err());
        assert_eq!(reg.generation("p"), 3);
    }

    #[test]
    fn name_collisions_across_producers_rejected() {
        let reg = PublishRegistry::new();
        reg.publish("p", "dash1", "a", schema(), None).unwrap();
        assert!(reg.publish("p", "dash2", "b", schema(), None).is_err());
        // Same producer may republish.
        reg.publish("p", "dash1", "a", schema(), None).unwrap();
    }

    #[test]
    fn unknown_resolve_returns_none() {
        let reg = PublishRegistry::new();
        assert!(reg.resolve("ghost", "x").is_none());
        assert!(reg.group_of("ghost").is_empty());
    }

    #[test]
    fn groups_are_connected_components() {
        let reg = PublishRegistry::new();
        reg.publish("a", "p1", "a", schema(), None).unwrap();
        reg.publish("b", "p2", "b", schema(), None).unwrap();
        reg.resolve("a", "c1");
        reg.resolve("a", "c2");
        reg.resolve("b", "c3");
        let mut groups = reg.groups();
        groups.sort();
        assert_eq!(groups.len(), 2);
        assert!(groups.contains(&vec!["c1".to_string(), "c2".to_string(), "p1".to_string()]));
        assert!(groups.contains(&vec!["c3".to_string(), "p2".to_string()]));
    }
}
