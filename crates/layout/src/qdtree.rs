//! Qd-tree layouts (Yang et al., SIGMOD 2020), greedy construction.
//!
//! A Qd-tree is a binary decision tree whose inner nodes hold predicates
//! drawn from the query workload (Fig. 2 of the paper). Records route to
//! leaves (= partitions) by evaluating the predicates top-down. Our builder
//! matches the paper's evaluation setup: "the greedy construction algorithm
//! … does not include any advanced cuts", built on a 0.1–1% data sample.
//!
//! **Greedy benefit.** For a candidate cut `a` at a node holding sample rows
//! `R` (split into `R_yes`/`R_no`), each workload query `q` contributes:
//! `|R_no|` if `q`'s satisfying set on `a`'s column is contained in `a`'s
//! (the query never needs the no-side), `|R_yes|` if it is disjoint from
//! `a`'s (never needs the yes-side), 0 otherwise. Frequent query shapes
//! appear repeatedly in the workload sample, so benefits are naturally
//! frequency-weighted.

use crate::satset::{predicate_satset, SatSet};
use crate::spec::{LayoutGenerator, LayoutSpec, SharedSpec};
use oreo_query::{Atom, ColId, CompareOp, Query};
use oreo_storage::{atom_matches_ref, Table};
use rand::rngs::StdRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

/// A built Qd-tree.
#[derive(Clone, Debug)]
pub struct QdTree {
    root: Node,
    k: usize,
    name: String,
}

#[derive(Clone, Debug)]
enum Node {
    Leaf(u32),
    Inner {
        atom: Atom,
        yes: Box<Node>,
        no: Box<Node>,
    },
}

impl QdTree {
    /// Height of the tree (a single leaf has depth 1).
    pub fn depth(&self) -> usize {
        fn d(n: &Node) -> usize {
            match n {
                Node::Leaf(_) => 1,
                Node::Inner { yes, no, .. } => 1 + d(yes).max(d(no)),
            }
        }
        d(&self.root)
    }

    /// The cut predicates in DFS order (diagnostics).
    pub fn cuts(&self) -> Vec<&Atom> {
        fn walk<'a>(n: &'a Node, out: &mut Vec<&'a Atom>) {
            if let Node::Inner { atom, yes, no } = n {
                out.push(atom);
                walk(yes, out);
                walk(no, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &mut out);
        out
    }
}

impl LayoutSpec for QdTree {
    fn k(&self) -> usize {
        self.k
    }

    fn route(&self, table: &Table, row: usize) -> u32 {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf(bid) => return *bid,
                Node::Inner { atom, yes, no } => {
                    let v = table.get(row, atom.col());
                    node = if atom_matches_ref(atom, v) { yes } else { no };
                }
            }
        }
    }

    fn describe(&self) -> String {
        self.name.clone()
    }
}

/// Configurable greedy builder.
#[derive(Clone, Debug)]
pub struct QdTreeBuilder {
    /// Target number of leaves (partitions).
    pub k: usize,
    /// Minimum rows (of the *sample*) per leaf; splits producing a smaller
    /// side are rejected. Defaults to `sample_rows / (4k)` when `None` — a
    /// quarter of the target partition size, loose enough that a narrow
    /// workload region (e.g. a one-month window over seven years) can still
    /// be isolated into its own partition.
    pub min_leaf_rows: Option<usize>,
}

impl QdTreeBuilder {
    /// A builder targeting at most `k` leaf partitions.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        Self {
            k,
            min_leaf_rows: None,
        }
    }

    /// Overrides the minimum sample rows a leaf may hold.
    pub fn with_min_leaf_rows(mut self, rows: usize) -> Self {
        self.min_leaf_rows = Some(rows);
        self
    }

    /// Greedily build a Qd-tree from a data sample and workload sample.
    pub fn build(&self, sample: &Table, workload: &[Query]) -> QdTree {
        let nrows = sample.num_rows();
        let min_leaf = self
            .min_leaf_rows
            .unwrap_or_else(|| (nrows / (4 * self.k)).max(1));

        // Candidate cuts: deduplicated atoms from the workload, plus their
        // half-range / equality decompositions — a narrow `BETWEEN lo AND
        // hi` rarely makes a feasible cut by itself (its yes-side is tiny),
        // but its component bounds `>= lo` / `<= hi` split well and compose
        // hierarchically, which is how Qd-tree uses workload predicates.
        let mut seen: HashSet<Atom> = HashSet::new();
        let mut candidates: Vec<Atom> = Vec::new();
        let push = |atom: Atom, seen: &mut HashSet<Atom>, out: &mut Vec<Atom>| {
            if seen.insert(atom.clone()) {
                out.push(atom);
            }
        };
        for q in workload {
            for a in q.predicate.atoms() {
                push(a.clone(), &mut seen, &mut candidates);
                match a {
                    Atom::Between { col, low, high } => {
                        push(
                            Atom::Compare {
                                col: *col,
                                op: CompareOp::Ge,
                                value: low.clone(),
                            },
                            &mut seen,
                            &mut candidates,
                        );
                        push(
                            Atom::Compare {
                                col: *col,
                                op: CompareOp::Le,
                                value: high.clone(),
                            },
                            &mut seen,
                            &mut candidates,
                        );
                    }
                    Atom::InSet { col, set } if set.len() <= 4 => {
                        for v in set {
                            push(
                                Atom::Compare {
                                    col: *col,
                                    op: CompareOp::Eq,
                                    value: v.clone(),
                                },
                                &mut seen,
                                &mut candidates,
                            );
                        }
                    }
                    _ => {}
                }
            }
        }
        let cand_sats: Vec<SatSet> = candidates.iter().map(SatSet::of_atom).collect();

        // Per-query, per-column satisfying sets (computed lazily, cached).
        let mut query_sats: Vec<HashMap<ColId, Option<SatSet>>> =
            vec![HashMap::new(); workload.len()];

        // Arena of tree slots.
        enum Slot {
            Leaf(Vec<u32>),
            Inner { atom: Atom, yes: usize, no: usize },
        }
        let mut slots: Vec<Slot> = vec![Slot::Leaf((0..nrows as u32).collect())];
        let mut leaf_count = 1usize;

        // (benefit, tiebreak, slot, candidate) — max-heap by benefit, then
        // *older* entries first for determinism.
        let mut heap: BinaryHeap<(u64, Reverse<u64>, usize, usize)> = BinaryHeap::new();
        let mut counter: u64 = 0;

        let push_best = |slot_idx: usize,
                         rows: &[u32],
                         heap: &mut BinaryHeap<(u64, Reverse<u64>, usize, usize)>,
                         query_sats: &mut Vec<HashMap<ColId, Option<SatSet>>>,
                         counter: &mut u64| {
            let mut best: Option<(u64, usize)> = None;
            for (ci, atom) in candidates.iter().enumerate() {
                let yes = rows
                    .iter()
                    .filter(|&&r| atom_matches_ref(atom, sample.get(r as usize, atom.col())))
                    .count();
                let no = rows.len() - yes;
                if yes < min_leaf || no < min_leaf {
                    continue;
                }
                let cut_sat = &cand_sats[ci];
                let col = atom.col();
                let mut benefit: u64 = 0;
                for (qi, q) in workload.iter().enumerate() {
                    let entry = query_sats[qi]
                        .entry(col)
                        .or_insert_with(|| predicate_satset(&q.predicate, col));
                    let Some(qsat) = entry else { continue };
                    if qsat.subset_of(cut_sat) {
                        benefit += no as u64;
                    } else if qsat.disjoint_from(cut_sat) {
                        benefit += yes as u64;
                    }
                }
                if benefit > 0 && best.is_none_or(|(b, _)| benefit > b) {
                    best = Some((benefit, ci));
                }
            }
            if let Some((benefit, ci)) = best {
                *counter += 1;
                heap.push((benefit, Reverse(*counter), slot_idx, ci));
            }
        };

        {
            let rows: Vec<u32> = (0..nrows as u32).collect();
            push_best(0, &rows, &mut heap, &mut query_sats, &mut counter);
        }

        while leaf_count < self.k {
            let Some((_, _, slot_idx, cand_idx)) = heap.pop() else {
                break; // no more beneficial cuts
            };
            let rows = match &slots[slot_idx] {
                Slot::Leaf(rows) => rows.clone(),
                Slot::Inner { .. } => continue, // stale entry
            };
            let atom = candidates[cand_idx].clone();
            let (yes_rows, no_rows): (Vec<u32>, Vec<u32>) = rows
                .iter()
                .partition(|&&r| atom_matches_ref(&atom, sample.get(r as usize, atom.col())));
            if yes_rows.len() < min_leaf || no_rows.len() < min_leaf {
                continue; // shouldn't happen; guard anyway
            }
            let yes_idx = slots.len();
            slots.push(Slot::Leaf(yes_rows));
            let no_idx = slots.len();
            slots.push(Slot::Leaf(no_rows));
            slots[slot_idx] = Slot::Inner {
                atom,
                yes: yes_idx,
                no: no_idx,
            };
            leaf_count += 1;

            for idx in [yes_idx, no_idx] {
                if let Slot::Leaf(rows) = &slots[idx] {
                    let rows = rows.clone();
                    push_best(idx, &rows, &mut heap, &mut query_sats, &mut counter);
                }
            }
        }

        // Assign leaf bids in DFS order and materialize the final tree.
        fn freeze(slots: &[Slot], idx: usize, next_bid: &mut u32) -> Node {
            match &slots[idx] {
                Slot::Leaf(_) => {
                    let bid = *next_bid;
                    *next_bid += 1;
                    Node::Leaf(bid)
                }
                Slot::Inner { atom, yes, no } => Node::Inner {
                    atom: atom.clone(),
                    yes: Box::new(freeze(slots, *yes, next_bid)),
                    no: Box::new(freeze(slots, *no, next_bid)),
                },
            }
        }
        let mut next_bid = 0;
        let root = freeze(&slots, 0, &mut next_bid);
        QdTree {
            root,
            k: next_bid as usize,
            name: format!("qdtree(k={next_bid})"),
        }
    }
}

/// Generator wrapper for the LAYOUT MANAGER.
#[derive(Clone, Debug, Default)]
pub struct QdTreeGenerator {
    /// Minimum leaf rows override (`None` → `sample_rows / 2k`).
    pub min_leaf_rows: Option<usize>,
}

impl QdTreeGenerator {
    /// A generator with the default (unconstrained) leaf size.
    pub fn new() -> Self {
        Self::default()
    }
}

impl LayoutGenerator for QdTreeGenerator {
    fn name(&self) -> &str {
        "qdtree"
    }

    fn generate(
        &self,
        sample: &Table,
        workload: &[Query],
        k: usize,
        _rng: &mut StdRng,
    ) -> SharedSpec {
        let mut builder = QdTreeBuilder::new(k);
        if let Some(m) = self.min_leaf_rows {
            builder = builder.with_min_leaf_rows(m);
        }
        Arc::new(builder.build(sample, workload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::build_exact_model;
    use oreo_query::{ColumnType, QueryBuilder, Scalar, Schema};
    use oreo_storage::TableBuilder;

    fn table(n: i64) -> Table {
        let s = Arc::new(Schema::from_pairs([
            ("cpu", ColumnType::Int),
            ("mem", ColumnType::Int),
            ("user", ColumnType::Str),
        ]));
        let mut b = TableBuilder::new(Arc::clone(&s));
        for i in 0..n {
            b.push_row(&[
                Scalar::Int(i % 100),
                Scalar::Int((i * 13) % 100),
                Scalar::from(if i % 5 == 0 { "root" } else { "user" }),
            ]);
        }
        b.finish()
    }

    fn workload(t: &Table) -> Vec<Query> {
        let mut qs = Vec::new();
        for _ in 0..10 {
            qs.push(QueryBuilder::new(t.schema()).lt("cpu", 10).build());
            qs.push(QueryBuilder::new(t.schema()).gt("mem", 80).build());
            qs.push(QueryBuilder::new(t.schema()).eq("user", "root").build());
        }
        qs
    }

    #[test]
    fn builds_k_leaves_and_routes_total() {
        let t = table(1000);
        let qs = workload(&t);
        let tree = QdTreeBuilder::new(4).build(&t, &qs);
        assert!(tree.k() >= 2 && tree.k() <= 4, "k = {}", tree.k());
        let a = tree.assign(&t);
        assert_eq!(a.len(), 1000);
        assert!(a.iter().all(|&b| (b as usize) < tree.k()));
        // every leaf receives at least one row
        let mut hit = vec![false; tree.k()];
        for &b in &a {
            hit[b as usize] = true;
        }
        assert!(hit.iter().all(|&h| h));
    }

    #[test]
    fn workload_queries_skip_partitions() {
        let t = table(2000);
        let qs = workload(&t);
        let tree = QdTreeBuilder::new(8).build(&t, &qs);
        let model = build_exact_model(&tree, 1, &t);
        // each of the three workload shapes should read a minority of rows
        let cpu_q = QueryBuilder::new(t.schema()).lt("cpu", 10).build();
        assert!(model.cost(&cpu_q) < 0.5, "cpu cost {}", model.cost(&cpu_q));
        let root_q = QueryBuilder::new(t.schema()).eq("user", "root").build();
        assert!(
            model.cost(&root_q) < 0.5,
            "user cost {}",
            model.cost(&root_q)
        );
    }

    #[test]
    fn no_workload_means_single_leaf() {
        let t = table(100);
        let tree = QdTreeBuilder::new(8).build(&t, &[]);
        assert_eq!(tree.k(), 1);
        assert_eq!(tree.depth(), 1);
        assert!(tree.assign(&t).iter().all(|&b| b == 0));
    }

    #[test]
    fn min_leaf_bound_respected() {
        let t = table(1000);
        let qs = workload(&t);
        let tree = QdTreeBuilder::new(16)
            .with_min_leaf_rows(100)
            .build(&t, &qs);
        let a = tree.assign(&t);
        let mut counts = vec![0usize; tree.k()];
        for &b in &a {
            counts[b as usize] += 1;
        }
        for (leaf, c) in counts.iter().enumerate() {
            assert!(*c >= 100, "leaf {leaf} has only {c} rows");
        }
    }

    #[test]
    fn cuts_come_from_workload() {
        let t = table(500);
        let qs = workload(&t);
        let tree = QdTreeBuilder::new(4).build(&t, &qs);
        // every cut constrains a workload-referenced column with a literal
        // drawn from the workload (possibly as a Between/InSet component)
        let mut cols = HashSet::new();
        let mut literals = HashSet::new();
        for q in &qs {
            for a in q.predicate.atoms() {
                cols.insert(a.col());
                match a {
                    Atom::Compare { value, .. } => {
                        literals.insert(value.clone());
                    }
                    Atom::Between { low, high, .. } => {
                        literals.insert(low.clone());
                        literals.insert(high.clone());
                    }
                    Atom::InSet { set, .. } => literals.extend(set.iter().cloned()),
                }
            }
        }
        for cut in tree.cuts() {
            assert!(cols.contains(&cut.col()), "foreign column {cut:?}");
            match cut {
                Atom::Compare { value, .. } => {
                    assert!(literals.contains(value), "foreign literal {cut:?}")
                }
                Atom::Between { low, high, .. } => {
                    assert!(literals.contains(low) && literals.contains(high));
                }
                Atom::InSet { set, .. } => {
                    assert!(set.iter().all(|v| literals.contains(v)));
                }
            }
        }
    }

    #[test]
    fn deterministic_construction() {
        let t = table(800);
        let qs = workload(&t);
        let t1 = QdTreeBuilder::new(8).build(&t, &qs);
        let t2 = QdTreeBuilder::new(8).build(&t, &qs);
        assert_eq!(t1.assign(&t), t2.assign(&t));
    }

    #[test]
    fn routes_unseen_rows() {
        // build on a sample, route a superset
        let t = table(1000);
        let qs = workload(&t);
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        let sample = t.sample(&mut rng, 100);
        let tree = QdTreeBuilder::new(4).build(&sample, &qs);
        let a = tree.assign(&t);
        assert_eq!(a.len(), 1000);
        assert!(a.iter().all(|&b| (b as usize) < tree.k()));
    }
}
