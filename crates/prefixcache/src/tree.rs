//! Token-level radix tree keyed by prompt prefixes.
//!
//! A standard compressed trie over `u32` token ids: every edge carries a non-empty
//! token run, children are kept sorted by first token (deterministic traversal),
//! edges split when a new key diverges mid-run and merge back when removals leave a
//! pass-through node. Values live on nodes ("an entry at depth `d`" caches the
//! prefix formed by the `d` tokens on the root path) and carry an LRU tick.

/// One cached value plus its LRU timestamp.
#[derive(Debug)]
struct Entry<V> {
    value: V,
    last_used: u64,
}

#[derive(Debug)]
struct Node<V> {
    entry: Option<Entry<V>>,
    /// `(edge label, child)`, labels non-empty, sorted by first token, first
    /// tokens pairwise distinct (radix invariant).
    children: Vec<(Vec<u32>, Node<V>)>,
}

impl<V> Node<V> {
    fn new() -> Self {
        Self {
            entry: None,
            children: Vec::new(),
        }
    }
}

fn common_prefix_len(a: &[u32], b: &[u32]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// A radix tree mapping token sequences to values, with LRU bookkeeping.
///
/// # Example
///
/// ```
/// use lserve_prefixcache::RadixTree;
///
/// let mut t: RadixTree<&str> = RadixTree::new();
/// assert!(t.insert(&[1, 2, 3, 4], "system+personaA", 1).is_ok());
/// assert!(t.insert(&[1, 2, 9, 9], "system+personaB", 2).is_ok());
/// // Deepest cached prefix of [1,2,3,4,7,7]: the 4-token entry.
/// let (depth, v) = t.lookup(&[1, 2, 3, 4, 7, 7], 1, 5, 3).unwrap();
/// assert_eq!((depth, *v), (4, "system+personaA"));
/// ```
#[derive(Debug)]
pub struct RadixTree<V> {
    root: Node<V>,
    entries: usize,
}

impl<V> Default for RadixTree<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> RadixTree<V> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self {
            root: Node::new(),
            entries: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Inserts `value` for exactly `key`, stamping it with `tick`.
    ///
    /// Returns `Err(value)` (handing the value back, tree unchanged except for an
    /// LRU touch of the existing entry) when `key` is already cached.
    ///
    /// # Panics
    ///
    /// Panics if `key` is empty.
    pub fn insert(&mut self, key: &[u32], value: V, tick: u64) -> Result<(), V> {
        assert!(!key.is_empty(), "empty prefix key");
        let res = Self::insert_rec(&mut self.root, key, value, tick);
        if res.is_ok() {
            self.entries += 1;
        }
        res
    }

    fn insert_rec(node: &mut Node<V>, key: &[u32], value: V, tick: u64) -> Result<(), V> {
        if key.is_empty() {
            return match &mut node.entry {
                Some(existing) => {
                    existing.last_used = tick;
                    Err(value)
                }
                slot @ None => {
                    *slot = Some(Entry {
                        value,
                        last_used: tick,
                    });
                    Ok(())
                }
            };
        }
        let Some(i) = node.children.iter().position(|(l, _)| l[0] == key[0]) else {
            node.children.push((key.to_vec(), Node::new()));
            node.children.sort_by_key(|(l, _)| l[0]);
            let i = node
                .children
                .iter()
                .position(|(l, _)| l[0] == key[0])
                .expect("just inserted");
            return Self::insert_rec(&mut node.children[i].1, &[], value, tick);
        };
        let common = common_prefix_len(&node.children[i].0, key);
        if common == node.children[i].0.len() {
            return Self::insert_rec(&mut node.children[i].1, &key[common..], value, tick);
        }
        // Diverges mid-edge: split the edge at `common`.
        let (label, old_child) = node.children.remove(i);
        let mut mid = Node::new();
        mid.children.push((label[common..].to_vec(), old_child));
        let res = Self::insert_rec(&mut mid, &key[common..], value, tick);
        node.children.push((label[..common].to_vec(), mid));
        node.children.sort_by_key(|(l, _)| l[0]);
        res
    }

    /// Finds the deepest cached entry whose key is a prefix of `query` with depth
    /// in `[min_depth.max(1), max_depth]`, touches its LRU stamp with `tick`, and
    /// returns `(depth, &value)`.
    pub fn lookup(
        &mut self,
        query: &[u32],
        min_depth: usize,
        max_depth: usize,
        tick: u64,
    ) -> Option<(usize, &V)> {
        let mut best = None;
        Self::best_depth(&self.root, query, 0, min_depth.max(1), max_depth, &mut best);
        let depth = best?;
        let entry = Self::entry_at_mut(&mut self.root, &query[..depth])
            .expect("best depth points at an entry");
        entry.last_used = tick;
        Some((depth, &entry.value))
    }

    fn best_depth(
        node: &Node<V>,
        rest: &[u32],
        depth: usize,
        min: usize,
        max: usize,
        best: &mut Option<usize>,
    ) {
        if node.entry.is_some() && depth >= min && depth <= max {
            *best = Some(depth); // deeper recorded matches overwrite shallower ones
        }
        if rest.is_empty() {
            return;
        }
        if let Some((label, child)) = node.children.iter().find(|(l, _)| l[0] == rest[0]) {
            if rest.len() >= label.len() && rest[..label.len()] == label[..] {
                Self::best_depth(
                    child,
                    &rest[label.len()..],
                    depth + label.len(),
                    min,
                    max,
                    best,
                );
            }
        }
    }

    fn entry_at_mut<'a>(node: &'a mut Node<V>, rest: &[u32]) -> Option<&'a mut Entry<V>> {
        if rest.is_empty() {
            return node.entry.as_mut();
        }
        let i = node.children.iter().position(|(l, _)| l[0] == rest[0])?;
        let (label, child) = &mut node.children[i];
        if rest.len() < label.len() || rest[..label.len()] != label[..] {
            return None;
        }
        let n = label.len();
        Self::entry_at_mut(child, &rest[n..])
    }

    /// Depths of every cached entry whose key is a prefix of `query`,
    /// shallowest first (no LRU touch).
    pub fn prefix_depths(&self, query: &[u32]) -> Vec<usize> {
        let mut depths = Vec::new();
        let (mut node, mut rest, mut depth) = (&self.root, query, 0);
        loop {
            if node.entry.is_some() {
                depths.push(depth);
            }
            let next = node.children.iter().find(|(l, _)| rest.starts_with(l));
            let Some((label, child)) = next else {
                return depths;
            };
            node = child;
            rest = &rest[label.len()..];
            depth += label.len();
        }
    }

    /// The value cached for exactly `key`, if any (no LRU touch).
    pub fn get_exact(&self, key: &[u32]) -> Option<&V> {
        let mut node = &self.root;
        let mut rest = key;
        loop {
            if rest.is_empty() {
                return node.entry.as_ref().map(|e| &e.value);
            }
            let (label, child) = node.children.iter().find(|(l, _)| l[0] == rest[0])?;
            if rest.len() < label.len() || rest[..label.len()] != label[..] {
                return None;
            }
            node = child;
            rest = &rest[label.len()..];
        }
    }

    /// Removes and returns the entry cached for exactly `key`, pruning childless
    /// nodes and merging pass-through edges it leaves behind.
    pub fn remove(&mut self, key: &[u32]) -> Option<V> {
        let v = Self::remove_rec(&mut self.root, key)?;
        self.entries -= 1;
        Some(v)
    }

    fn remove_rec(node: &mut Node<V>, rest: &[u32]) -> Option<V> {
        if rest.is_empty() {
            return node.entry.take().map(|e| e.value);
        }
        let i = node.children.iter().position(|(l, _)| l[0] == rest[0])?;
        let label_len = node.children[i].0.len();
        if rest.len() < label_len || rest[..label_len] != node.children[i].0[..] {
            return None;
        }
        let v = Self::remove_rec(&mut node.children[i].1, &rest[label_len..])?;
        let child = &mut node.children[i].1;
        if child.entry.is_none() && child.children.is_empty() {
            node.children.remove(i);
        } else if child.entry.is_none() && child.children.len() == 1 {
            // Pass-through node: merge the grandchild edge into this one.
            let (grand_label, grand_child) = child.children.pop().expect("len checked");
            node.children[i].0.extend(grand_label);
            node.children[i].1 = grand_child;
        }
        Some(v)
    }

    /// The key of the least-recently-used entry (smallest tick; ties broken by the
    /// deterministic sorted traversal order), or `None` when empty.
    pub fn lru_key(&self) -> Option<Vec<u32>> {
        let mut best: Option<(u64, Vec<u32>)> = None;
        let mut path = Vec::new();
        Self::lru_rec(&self.root, &mut path, &mut best);
        best.map(|(_, key)| key)
    }

    /// Every entry's key, least-recently-used first (ascending tick; ticks are
    /// unique, so the order is total and deterministic).
    pub fn keys_by_lru(&self) -> Vec<Vec<u32>> {
        let mut keys: Vec<(u64, Vec<u32>)> = Vec::with_capacity(self.entries);
        let mut path = Vec::new();
        Self::collect_rec(&self.root, &mut path, &mut keys);
        keys.sort_by_key(|(tick, _)| *tick);
        keys.into_iter().map(|(_, key)| key).collect()
    }

    fn collect_rec(node: &Node<V>, path: &mut Vec<u32>, out: &mut Vec<(u64, Vec<u32>)>) {
        if let Some(e) = &node.entry {
            out.push((e.last_used, path.clone()));
        }
        for (label, child) in &node.children {
            path.extend_from_slice(label);
            Self::collect_rec(child, path, out);
            path.truncate(path.len() - label.len());
        }
    }

    fn lru_rec(node: &Node<V>, path: &mut Vec<u32>, best: &mut Option<(u64, Vec<u32>)>) {
        if let Some(e) = &node.entry {
            if best.as_ref().is_none_or(|(t, _)| e.last_used < *t) {
                *best = Some((e.last_used, path.clone()));
            }
        }
        for (label, child) in &node.children {
            path.extend_from_slice(label);
            Self::lru_rec(child, path, best);
            path.truncate(path.len() - label.len());
        }
    }

    /// Removes every entry and returns the values (deterministic traversal order).
    pub fn drain(&mut self) -> Vec<V> {
        let mut out = Vec::with_capacity(self.entries);
        Self::drain_rec(std::mem::replace(&mut self.root, Node::new()), &mut out);
        self.entries = 0;
        out
    }

    fn drain_rec(node: Node<V>, out: &mut Vec<V>) {
        if let Some(e) = node.entry {
            out.push(e.value);
        }
        for (_, child) in node.children {
            Self::drain_rec(child, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_deepest_prefix() {
        let mut t = RadixTree::new();
        t.insert(&[1, 2], "ab", 1).unwrap();
        t.insert(&[1, 2, 3, 4], "abcd", 2).unwrap();
        let (d, v) = t.lookup(&[1, 2, 3, 4, 5], 1, 4, 3).unwrap();
        assert_eq!((d, *v), (4, "abcd"));
        // max_depth below the deep entry falls back to the shallow one.
        let (d, v) = t.lookup(&[1, 2, 3, 4, 5], 1, 3, 4).unwrap();
        assert_eq!((d, *v), (2, "ab"));
        // min_depth above everything: miss.
        assert!(t.lookup(&[1, 2, 3, 4, 5], 5, 9, 5).is_none());
        // Non-matching query: miss.
        assert!(t.lookup(&[9, 9], 1, 9, 6).is_none());
    }

    #[test]
    fn divergence_splits_edges() {
        let mut t = RadixTree::new();
        t.insert(&[5, 6, 7, 8], "x", 1).unwrap();
        t.insert(&[5, 6, 9, 9], "y", 2).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get_exact(&[5, 6, 7, 8]), Some(&"x"));
        assert_eq!(t.get_exact(&[5, 6, 9, 9]), Some(&"y"));
        assert_eq!(t.get_exact(&[5, 6]), None, "split point holds no entry");
        // An entry can land exactly on the split point afterwards.
        t.insert(&[5, 6], "xy", 3).unwrap();
        assert_eq!(t.get_exact(&[5, 6]), Some(&"xy"));
        let (d, v) = t.lookup(&[5, 6, 7, 0], 1, 4, 4).unwrap();
        assert_eq!((d, *v), (2, "xy"));
    }

    #[test]
    fn duplicate_insert_refused_and_touched() {
        let mut t = RadixTree::new();
        t.insert(&[1, 2, 3], "a", 1).unwrap();
        t.insert(&[9], "b", 2).unwrap();
        assert_eq!(t.insert(&[1, 2, 3], "dup", 3), Err("dup"));
        // The refused insert still counted as a use: [9] is now the LRU entry.
        assert_eq!(t.lru_key(), Some(vec![9]));
    }

    #[test]
    fn lru_follows_lookups() {
        let mut t = RadixTree::new();
        t.insert(&[1, 1], "a", 1).unwrap();
        t.insert(&[2, 2], "b", 2).unwrap();
        t.insert(&[3, 3], "c", 3).unwrap();
        assert_eq!(t.lru_key(), Some(vec![1, 1]));
        t.lookup(&[1, 1, 5], 1, 2, 4).unwrap();
        assert_eq!(t.lru_key(), Some(vec![2, 2]));
        assert_eq!(t.remove(&[2, 2]), Some("b"));
        assert_eq!(t.lru_key(), Some(vec![3, 3]));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn remove_merges_pass_through_edges() {
        let mut t = RadixTree::new();
        t.insert(&[1, 2, 3, 4], "deep", 1).unwrap();
        t.insert(&[1, 2, 8], "fork", 2).unwrap();
        assert_eq!(t.remove(&[1, 2, 8]), Some("fork"));
        assert_eq!(t.remove(&[1, 2, 8]), None);
        // The [1,2] split node merged back; the deep entry is still reachable.
        assert_eq!(t.get_exact(&[1, 2, 3, 4]), Some(&"deep"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.drain(), vec!["deep"]);
        assert!(t.is_empty());
    }
}
