use crate::{Dag, PosetError, ValueId};
use std::collections::HashMap;

/// Ergonomic construction of a partial order from labeled preference pairs —
/// the way a *dynamic skyline query* states its preferences (§V), e.g. the
/// airline orders of Table I.
///
/// ```
/// use poset::PartialOrderBuilder;
///
/// // Table I, second row: "the only preference is that of b over a".
/// let mut b = PartialOrderBuilder::new();
/// b.values(["a", "b", "c", "d"]);
/// b.prefer("b", "a").unwrap();
/// let dag = b.build().unwrap();
/// assert_eq!(dag.len(), 4);
/// assert!(dag.has_edge(dag.id_of("b").unwrap(), dag.id_of("a").unwrap()));
/// ```
#[derive(Debug, Default, Clone)]
pub struct PartialOrderBuilder {
    labels: Vec<String>,
    index: HashMap<String, ValueId>,
    edges: Vec<(u32, u32)>,
}

impl PartialOrderBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a value; returns its id. Registering an existing label
    /// returns the existing id (idempotent).
    pub fn value(&mut self, label: &str) -> ValueId {
        if let Some(&id) = self.index.get(label) {
            return id;
        }
        let id = ValueId(self.labels.len() as u32);
        self.labels.push(label.to_string());
        self.index.insert(label.to_string(), id);
        id
    }

    /// Registers several values at once.
    pub fn values<'a>(&mut self, labels: impl IntoIterator<Item = &'a str>) {
        for l in labels {
            self.value(l);
        }
    }

    /// States that `better` is preferred over `worse`. Both labels are
    /// auto-registered. Fails fast on a self-preference; cycles introduced
    /// across several calls are caught by [`build`](Self::build).
    pub fn prefer(&mut self, better: &str, worse: &str) -> Result<(), PosetError> {
        if better == worse {
            return Err(PosetError::ContradictoryPreference {
                better: better.to_string(),
                worse: worse.to_string(),
            });
        }
        let b = self.value(better);
        let w = self.value(worse);
        self.edges.push((b.0, w.0));
        Ok(())
    }

    /// States a chain of preferences `labels[0] < labels[1] < …`.
    pub fn chain<'a>(
        &mut self,
        labels: impl IntoIterator<Item = &'a str>,
    ) -> Result<(), PosetError> {
        let labels: Vec<&str> = labels.into_iter().collect();
        for pair in labels.windows(2) {
            self.prefer(pair[0], pair[1])?;
        }
        Ok(())
    }

    /// Finalizes the domain, validating acyclicity and transitively reducing
    /// to a Hasse diagram (so redundant stated preferences are harmless).
    pub fn build(self) -> Result<Dag, PosetError> {
        let dag = Dag::from_labeled(self.labels, &self.edges)?;
        Ok(dag.transitive_reduction())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reachability;

    #[test]
    fn table1_first_airline_order() {
        // a over b and c; any company over d; b, c incomparable.
        let mut b = PartialOrderBuilder::new();
        b.values(["a", "b", "c", "d"]);
        b.prefer("a", "b").unwrap();
        b.prefer("a", "c").unwrap();
        b.prefer("b", "d").unwrap();
        b.prefer("c", "d").unwrap();
        // A redundant transitive statement must be tolerated and reduced.
        b.prefer("a", "d").unwrap();
        let dag = b.build().unwrap();
        assert_eq!(dag.num_edges(), 4, "a->d is transitively redundant");
        let r = Reachability::build(&dag);
        let id = |s: &str| dag.id_of(s).unwrap();
        assert!(r.preferred(id("a"), id("d")));
        assert!(!r.preferred(id("b"), id("c")));
        assert!(!r.preferred(id("c"), id("b")));
    }

    #[test]
    fn value_is_idempotent() {
        let mut b = PartialOrderBuilder::new();
        let x = b.value("x");
        let x2 = b.value("x");
        assert_eq!(x, x2);
        assert_eq!(b.build().unwrap().len(), 1);
    }

    #[test]
    fn chain_builds_total_order() {
        let mut b = PartialOrderBuilder::new();
        b.chain(["gold", "silver", "bronze"]).unwrap();
        let dag = b.build().unwrap();
        let r = Reachability::build(&dag);
        assert!(r.preferred(dag.id_of("gold").unwrap(), dag.id_of("bronze").unwrap()));
    }

    #[test]
    fn self_preference_rejected() {
        let mut b = PartialOrderBuilder::new();
        assert!(b.prefer("x", "x").is_err());
    }

    #[test]
    fn cycle_rejected_at_build() {
        let mut b = PartialOrderBuilder::new();
        b.prefer("x", "y").unwrap();
        b.prefer("y", "z").unwrap();
        b.prefer("z", "x").unwrap();
        assert!(matches!(b.build(), Err(PosetError::Cycle { .. })));
    }

    #[test]
    fn isolated_values_allowed() {
        let mut b = PartialOrderBuilder::new();
        b.values(["a", "b", "c"]);
        b.prefer("a", "b").unwrap();
        let dag = b.build().unwrap();
        assert_eq!(dag.len(), 3);
        let c = dag.id_of("c").unwrap();
        assert!(dag.children(c).is_empty() && dag.parents(c).is_empty());
    }
}
