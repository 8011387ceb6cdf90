//! Content-addressed commit store with branches and forks.
//!
//! The whole data pipeline is one text file, "very amenable to manage via a
//! source control system" (§4.5.1). The store is deliberately git-shaped:
//! immutable commits addressed by a content hash, named branches, merge
//! commits with two parents, and forks that copy history into a new
//! repository (how hackathon teams started from sample dashboards).

use parking_lot::RwLock;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// A commit identifier: a 128-bit content hash, displayed as its 32 hex
/// digits. It is a value, so the commit map, a branch head and a child's
/// parent list each hold 16 bytes rather than another copy of the hex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CommitId(pub u128);

impl fmt::Display for CommitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// FNV-1a with two seeds — deterministic, dependency-free content hashing.
/// A parent id is hashed as its hex digits.
fn content_hash(parts: &[&str]) -> CommitId {
    fn fnv(seed: u64, parts: &[&str]) -> u64 {
        let mut h = seed;
        for p in parts {
            for b in p.as_bytes() {
                h ^= *b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            h ^= 0xff; // separator so ["ab","c"] != ["a","bc"]
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }
    let (hi, lo) = (
        fnv(0xcbf29ce484222325, parts),
        fnv(0x9e3779b97f4a7c15, parts),
    );
    CommitId((u128::from(hi) << 64) | u128::from(lo))
}

/// One immutable commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Commit {
    /// Content-derived id.
    pub id: CommitId,
    /// Parent commits (0 for root, 1 normal, 2 merge).
    pub parents: Vec<CommitId>,
    /// Author label.
    pub author: Arc<str>,
    /// Commit message.
    pub message: Arc<str>,
    /// The flow-file text at this commit. Commits of one repository that
    /// hold the same text, author or message share it: an author who
    /// alternates between two variants of a flow keeps two texts, not one
    /// per save.
    pub content: Arc<str>,
    /// Monotonic sequence number within the repository (logical clock).
    pub seq: u64,
}

/// Store errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Unknown branch name.
    NoBranch(String),
    /// Unknown commit id.
    NoCommit(CommitId),
    /// Branch already exists.
    BranchExists(String),
    /// Merge has no common ancestor (disjoint histories).
    NoCommonAncestor,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NoBranch(b) => write!(f, "no branch '{b}'"),
            StoreError::NoCommit(c) => write!(f, "no commit {c}"),
            StoreError::BranchExists(b) => write!(f, "branch '{b}' already exists"),
            StoreError::NoCommonAncestor => write!(f, "histories share no common ancestor"),
        }
    }
}

impl std::error::Error for StoreError {}

#[derive(Debug, Default)]
struct RepoInner {
    commits: BTreeMap<CommitId, Commit>,
    /// Every distinct text, author and message committed, for
    /// [`RepoInner::text`].
    texts: BTreeSet<Arc<str>>,
    branches: BTreeMap<String, CommitId>,
    seq: u64,
    /// `(source repo name, commit)` when this repo was forked.
    forked_from: Option<(String, CommitId)>,
}

impl RepoInner {
    /// `content` as the one shared copy this repository keeps of it.
    /// Authors and messages are few and repeat, like texts.
    fn text(&mut self, content: &str) -> Arc<str> {
        if let Some(held) = self.texts.get(content) {
            return Arc::clone(held);
        }
        let held: Arc<str> = content.into();
        self.texts.insert(Arc::clone(&held));
        held
    }

    /// Point `branch` at `id`, allocating its name only when it is new.
    fn set_head(&mut self, branch: &str, id: CommitId) {
        match self.branches.get_mut(branch) {
            Some(head) => *head = id,
            None => {
                self.branches.insert(branch.to_string(), id);
            }
        }
    }
}

/// A dashboard's version history.
#[derive(Debug, Clone, Default)]
pub struct Repository {
    name: String,
    inner: Arc<RwLock<RepoInner>>,
}

impl Repository {
    /// New empty repository for a dashboard.
    pub fn new(name: impl Into<String>) -> Self {
        Repository {
            name: name.into(),
            inner: Arc::new(RwLock::new(RepoInner::default())),
        }
    }

    /// Repository (dashboard) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Where this repo was forked from, if anywhere.
    pub fn forked_from(&self) -> Option<(String, CommitId)> {
        self.inner.read().forked_from.clone()
    }

    /// Commit new content onto a branch (creating `main`/the branch at the
    /// root commit).
    pub fn commit(&self, branch: &str, author: &str, message: &str, content: &str) -> CommitId {
        let mut inner = self.inner.write();
        let parents: Vec<CommitId> = inner.branches.get(branch).copied().into_iter().collect();
        inner.seq += 1;
        let seq = inner.seq;
        let parent_hex: Vec<String> = parents.iter().map(CommitId::to_string).collect();
        let mut parts: Vec<&str> = vec![content, author, message, &self.name];
        let seq_s = seq.to_string();
        parts.push(&seq_s);
        for p in &parent_hex {
            parts.push(p);
        }
        let id = content_hash(&parts);
        let commit = Commit {
            id,
            parents,
            author: inner.text(author),
            message: inner.text(message),
            content: inner.text(content),
            seq,
        };
        inner.commits.insert(id, commit);
        inner.set_head(branch, id);
        id
    }

    /// Record a merge commit with two parents.
    pub fn commit_merge(
        &self,
        branch: &str,
        author: &str,
        message: &str,
        content: &str,
        other_parent: &CommitId,
    ) -> Result<CommitId, StoreError> {
        let mut inner = self.inner.write();
        let head = inner
            .branches
            .get(branch)
            .copied()
            .ok_or_else(|| StoreError::NoBranch(branch.to_string()))?;
        if !inner.commits.contains_key(other_parent) {
            return Err(StoreError::NoCommit(*other_parent));
        }
        inner.seq += 1;
        let seq = inner.seq;
        let seq_s = seq.to_string();
        let (head_hex, other_hex) = (head.to_string(), other_parent.to_string());
        let id = content_hash(&[content, author, message, &head_hex, &other_hex, &seq_s]);
        let commit = Commit {
            id,
            parents: vec![head, *other_parent],
            author: inner.text(author),
            message: inner.text(message),
            content: inner.text(content),
            seq,
        };
        inner.commits.insert(id, commit);
        inner.set_head(branch, id);
        Ok(id)
    }

    /// Create a branch at another branch's head.
    pub fn branch(&self, new_branch: &str, from: &str) -> Result<CommitId, StoreError> {
        let mut inner = self.inner.write();
        if inner.branches.contains_key(new_branch) {
            return Err(StoreError::BranchExists(new_branch.to_string()));
        }
        let head = inner
            .branches
            .get(from)
            .copied()
            .ok_or_else(|| StoreError::NoBranch(from.to_string()))?;
        inner.branches.insert(new_branch.to_string(), head);
        Ok(head)
    }

    /// Head commit of a branch.
    pub fn head(&self, branch: &str) -> Result<Commit, StoreError> {
        let inner = self.inner.read();
        let id = inner
            .branches
            .get(branch)
            .ok_or_else(|| StoreError::NoBranch(branch.to_string()))?;
        Ok(inner.commits[id].clone())
    }

    /// A commit by id.
    pub fn get(&self, id: &CommitId) -> Result<Commit, StoreError> {
        self.inner
            .read()
            .commits
            .get(id)
            .cloned()
            .ok_or(StoreError::NoCommit(*id))
    }

    /// All branch names.
    pub fn branches(&self) -> Vec<String> {
        self.inner.read().branches.keys().cloned().collect()
    }

    /// Commit count.
    pub fn len(&self) -> usize {
        self.inner.read().commits.len()
    }

    /// True when no commits exist.
    pub fn is_empty(&self) -> bool {
        self.inner.read().commits.is_empty()
    }

    /// History of a branch, newest first (first-parent walk).
    pub fn log(&self, branch: &str) -> Result<Vec<Commit>, StoreError> {
        let inner = self.inner.read();
        let mut id = inner
            .branches
            .get(branch)
            .copied()
            .ok_or_else(|| StoreError::NoBranch(branch.to_string()))?;
        let mut out = Vec::new();
        loop {
            let c = inner.commits[&id].clone();
            let parent = c.parents.first().copied();
            out.push(c);
            match parent {
                Some(p) => id = p,
                None => break,
            }
        }
        Ok(out)
    }

    /// Lowest common ancestor of two commits (by full ancestor sets; ties
    /// broken by highest sequence number).
    pub fn merge_base(&self, a: &CommitId, b: &CommitId) -> Result<Commit, StoreError> {
        let inner = self.inner.read();
        fn ancestors(
            inner: &RepoInner,
            start: &CommitId,
        ) -> Result<std::collections::BTreeSet<CommitId>, StoreError> {
            let mut set = std::collections::BTreeSet::new();
            let mut stack = vec![*start];
            while let Some(id) = stack.pop() {
                let c = inner.commits.get(&id).ok_or(StoreError::NoCommit(id))?;
                if set.insert(id) {
                    stack.extend(c.parents.iter().copied());
                }
            }
            Ok(set)
        }
        let aa = ancestors(&inner, a)?;
        let bb = ancestors(&inner, b)?;
        aa.intersection(&bb)
            .map(|id| inner.commits[id].clone())
            .max_by_key(|c| c.seq)
            .ok_or(StoreError::NoCommonAncestor)
    }

    /// Fork: a new repository seeded with this branch's head content as its
    /// root commit, remembering provenance. Returns the new repo.
    pub fn fork(
        &self,
        new_name: &str,
        branch: &str,
        author: &str,
    ) -> Result<Repository, StoreError> {
        let head = self.head(branch)?;
        let repo = Repository::new(new_name);
        repo.commit(
            "main",
            author,
            &format!("fork of {}@{}", self.name, head.id),
            &head.content,
        );
        repo.inner.write().forked_from = Some((self.name.clone(), head.id));
        Ok(repo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commits_of_the_same_text_share_it() {
        let repo = Repository::new("retail");
        let (a, b) = ("T:\n  x: 3\n", "T:\n  x: 4\n");
        let ids: Vec<CommitId> = [a, b, a, b, a]
            .iter()
            .map(|text| repo.commit("main", "ann", "edit", text))
            .collect();
        let held = |i: usize| repo.get(&ids[i]).unwrap().content;
        assert!(Arc::ptr_eq(&held(0), &held(2)) && Arc::ptr_eq(&held(2), &held(4)));
        assert!(Arc::ptr_eq(&held(1), &held(3)));
        assert_eq!((&*held(0), &*held(1)), (a, b));
    }

    #[test]
    fn commit_and_log() {
        let repo = Repository::new("apache");
        let c1 = repo.commit("main", "alice", "initial", "D:\n  a: [x]\n");
        let c2 = repo.commit(
            "main",
            "bob",
            "add task",
            "D:\n  a: [x]\nT:\n  t:\n    type: limit\n    limit: 1\n",
        );
        assert_ne!(c1, c2);
        let log = repo.log("main").unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].id, c2);
        assert_eq!(log[1].id, c1);
        assert_eq!(log[0].parents, vec![c1]);
        assert_eq!(&*repo.head("main").unwrap().author, "bob");
    }

    #[test]
    fn branching_and_merge_base() {
        let repo = Repository::new("r");
        let base = repo.commit("main", "a", "base", "v0");
        repo.branch("feature", "main").unwrap();
        let m1 = repo.commit("main", "a", "main work", "v-main");
        let f1 = repo.commit("feature", "b", "feature work", "v-feat");
        let lca = repo.merge_base(&m1, &f1).unwrap();
        assert_eq!(lca.id, base);

        let merged = repo
            .commit_merge("main", "a", "merge feature", "v-merged", &f1)
            .unwrap();
        let head = repo.head("main").unwrap();
        assert_eq!(head.id, merged);
        assert_eq!(head.parents.len(), 2);
        // LCA after merge is the merge itself when comparing with feature.
        let lca = repo.merge_base(&merged, &f1).unwrap();
        assert_eq!(lca.id, f1);
    }

    #[test]
    fn branch_errors() {
        let repo = Repository::new("r");
        repo.commit("main", "a", "m", "x");
        assert!(matches!(
            repo.branch("main", "main"),
            Err(StoreError::BranchExists(_))
        ));
        assert!(matches!(
            repo.branch("f", "ghost"),
            Err(StoreError::NoBranch(_))
        ));
        assert!(matches!(repo.head("ghost"), Err(StoreError::NoBranch(_))));
    }

    #[test]
    fn fork_copies_content_and_provenance() {
        let samples = Repository::new("help_dashboard");
        samples.commit("main", "platform", "sample", "D:\n  demo: [x]\n");
        let team = samples.fork("team_12", "main", "team12").unwrap();
        assert_eq!(team.name(), "team_12");
        let head = team.head("main").unwrap();
        assert_eq!(&*head.content, "D:\n  demo: [x]\n");
        assert!(head.message.contains("fork of help_dashboard"));
        let (src, _) = team.forked_from().unwrap();
        assert_eq!(src, "help_dashboard");
    }

    #[test]
    fn ids_are_content_derived_and_distinct() {
        let repo = Repository::new("r");
        let a = repo.commit("main", "x", "m", "same");
        let b = repo.commit("main", "x", "m", "same");
        // Same content but different parent/seq: distinct ids.
        assert_ne!(a, b);
        assert_eq!(a.to_string().len(), 32);
    }

    #[test]
    fn ids_render_as_they_did_when_they_were_hex_strings() {
        // Pinned from the `CommitId(String)` store: a root, a child (its
        // parent hashed as hex), a branch commit and a merge.
        let repo = Repository::new("retail");
        let a = repo.commit("main", "ann", "save", "T:\n  x: 3\n");
        let b = repo.commit("main", "bob", "save", "T:\n  x: 4\n");
        repo.branch("f", "main").unwrap();
        let c = repo.commit("f", "cy", "feature", "T:\n  x: 5\n");
        let m = repo
            .commit_merge("main", "ann", "merge", "T:\n  x: 6\n", &c)
            .unwrap();
        assert_eq!(
            [a, b, c, m].map(|id| id.to_string()),
            [
                "1910b8ba97e22b897c4db86e2c0e5979",
                "0b03474c4e305cf53af03805d8e17d45",
                "706622d25fafd658fe0c053fa5c6ee48",
                "57d0c877151fa18b9f99290270771c1b",
            ]
        );
        // Authors and messages are held once per repository.
        let (ha, hb) = (repo.get(&a).unwrap(), repo.get(&b).unwrap());
        assert!(Arc::ptr_eq(&ha.message, &hb.message));
        assert!(Arc::ptr_eq(&ha.author, &repo.get(&m).unwrap().author));
    }

    #[test]
    fn disjoint_histories_have_no_ancestor() {
        let repo = Repository::new("r");
        let a = repo.commit("main", "x", "m", "1");
        let b = repo.commit("other", "x", "m", "2");
        assert!(matches!(
            repo.merge_base(&a, &b),
            Err(StoreError::NoCommonAncestor)
        ));
    }
}
