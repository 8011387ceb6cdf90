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
/// digits. It is a value, so the id index, a branch head and a commit's
/// record each hold 16 bytes rather than another copy of the hex.
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

/// One immutable commit, as a reader sees it (the repository keeps a
/// compact record and rebuilds this on each read).
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

/// One commit as a repository keeps it: 40 bytes, its parents and texts
/// by number. [`RepoInner::commit`] rebuilds the [`Commit`] a reader sees.
#[derive(Debug)]
struct Stored {
    /// The id's halves, high first (a `u128` field would align the record
    /// to 16 bytes).
    id: [u64; 2],
    /// The parents' positions in [`RepoInner::commits`]; [`NO_PARENT`]
    /// fills the second slot of an ordinary commit and both of a root.
    parents: [u32; 2],
    /// Positions in [`RepoInner::texts`].
    author: u32,
    message: u32,
    content: u32,
}

/// An empty parent slot of a [`Stored`] commit.
const NO_PARENT: u32 = u32::MAX;

impl Stored {
    fn id(&self) -> CommitId {
        CommitId((u128::from(self.id[0]) << 64) | u128::from(self.id[1]))
    }

    fn parents(&self) -> impl Iterator<Item = u32> + '_ {
        self.parents.iter().copied().filter(|&p| p != NO_PARENT)
    }
}

/// A repository's history. Commits are numbered in the order they were
/// made (a commit's `seq` is its position plus one), and everything else
/// refers to them by position, so a save adds a 40-byte record and a
/// 20-byte index entry (plus node overhead) to the history, not a
/// [`Commit`] with a parent list of its own on the heap.
#[derive(Debug, Default)]
struct RepoInner {
    commits: Vec<Stored>,
    /// Each commit's position in `commits`, by id.
    positions: BTreeMap<CommitId, u32>,
    /// Every distinct text, author and message committed, numbered in the
    /// order first seen ([`RepoInner::text`]).
    texts: Vec<Arc<str>>,
    /// Each of `texts` by its string.
    text_numbers: BTreeMap<Arc<str>, u32>,
    branches: BTreeMap<String, CommitId>,
    /// `(source repo name, commit)` when this repo was forked.
    forked_from: Option<(String, CommitId)>,
}

impl RepoInner {
    /// The number of `content`'s one shared copy in this repository.
    /// Authors and messages are few and repeat, like texts.
    fn text(&mut self, content: &str) -> u32 {
        if let Some(&number) = self.text_numbers.get(content) {
            return number;
        }
        let number = u32::try_from(self.texts.len()).expect("fewer than 2^32 distinct texts");
        let held: Arc<str> = content.into();
        self.texts.push(Arc::clone(&held));
        self.text_numbers.insert(held, number);
        number
    }

    /// The `seq` the next commit gets.
    fn next_seq(&self) -> u64 {
        self.commits.len() as u64 + 1
    }

    /// Record a commit with `parents` (at most two) as the newest.
    fn push(&mut self, id: CommitId, parents: &[CommitId], texts: [&str; 3]) {
        let mut slots = [NO_PARENT; 2];
        for (slot, parent) in slots.iter_mut().zip(parents) {
            *slot = self.positions[parent];
        }
        let [author, message, content] = texts.map(|t| self.text(t));
        let position = u32::try_from(self.commits.len()).expect("fewer than 2^32 commits");
        self.commits.push(Stored {
            id: [(id.0 >> 64) as u64, id.0 as u64],
            parents: slots,
            author,
            message,
            content,
        });
        self.positions.insert(id, position);
    }

    fn position(&self, id: &CommitId) -> Result<u32, StoreError> {
        self.positions
            .get(id)
            .copied()
            .ok_or(StoreError::NoCommit(*id))
    }

    fn head_position(&self, branch: &str) -> Result<u32, StoreError> {
        let id = self
            .branches
            .get(branch)
            .ok_or_else(|| StoreError::NoBranch(branch.to_string()))?;
        self.position(id)
    }

    /// The commit at `position`, as readers see it.
    fn commit(&self, position: u32) -> Commit {
        let stored = &self.commits[position as usize];
        let text = |number: u32| Arc::clone(&self.texts[number as usize]);
        Commit {
            id: stored.id(),
            parents: stored
                .parents()
                .map(|p| self.commits[p as usize].id())
                .collect(),
            author: text(stored.author),
            message: text(stored.message),
            content: text(stored.content),
            seq: u64::from(position) + 1,
        }
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
        let parent = inner.branches.get(branch).copied();
        let seq_s = inner.next_seq().to_string();
        let parent_hex = parent.map(|p| p.to_string());
        let mut parts: Vec<&str> = vec![content, author, message, &self.name, &seq_s];
        parts.extend(parent_hex.as_deref());
        let id = content_hash(&parts);
        let parents: &[CommitId] = parent.as_slice();
        inner.push(id, parents, [author, message, content]);
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
        inner.position(other_parent)?;
        let seq_s = inner.next_seq().to_string();
        let (head_hex, other_hex) = (head.to_string(), other_parent.to_string());
        let id = content_hash(&[content, author, message, &head_hex, &other_hex, &seq_s]);
        inner.push(id, &[head, *other_parent], [author, message, content]);
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
        Ok(inner.commit(inner.head_position(branch)?))
    }

    /// A commit by id.
    pub fn get(&self, id: &CommitId) -> Result<Commit, StoreError> {
        let inner = self.inner.read();
        Ok(inner.commit(inner.position(id)?))
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
        let mut at = Some(inner.head_position(branch)?);
        let mut out = Vec::new();
        while let Some(position) = at {
            out.push(inner.commit(position));
            at = inner.commits[position as usize].parents().next();
        }
        Ok(out)
    }

    /// Lowest common ancestor of two commits (by full ancestor sets; ties
    /// broken by highest sequence number).
    pub fn merge_base(&self, a: &CommitId, b: &CommitId) -> Result<Commit, StoreError> {
        let inner = self.inner.read();
        let ancestors = |start: &CommitId| -> Result<BTreeSet<u32>, StoreError> {
            let mut set = BTreeSet::new();
            let mut stack = vec![inner.position(start)?];
            while let Some(position) = stack.pop() {
                if set.insert(position) {
                    stack.extend(inner.commits[position as usize].parents());
                }
            }
            Ok(set)
        };
        let (aa, bb) = (ancestors(a)?, ancestors(b)?);
        aa.intersection(&bb)
            .max()
            .map(|&position| inner.commit(position))
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
