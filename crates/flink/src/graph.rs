//! Job graph recording.
//!
//! Flink compiles programs into a dataflow graph handled by the JobManager
//! and DAGScheduler. The engine here executes eagerly, but it records each
//! executed phase into a [`JobGraph`] so tools can inspect the plan, report
//! the Eq. (1) decomposition per phase and render the DAG.

use gflink_sim::SimTime;
use std::fmt;

/// The kind of an executed phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseKind {
    /// HDFS (or collection) source.
    Source,
    /// Element-wise transformation (map / flatMap / filter / mapPartition).
    Map,
    /// Hash repartition (the shuffle of a groupBy).
    Shuffle,
    /// Per-key or global reduction.
    Reduce,
    /// Join of two datasets.
    Join,
    /// Driver-side action (collect / count / reduce-to-driver).
    Action,
    /// HDFS sink.
    Sink,
    /// Broadcast of a driver value to all workers.
    Broadcast,
}

impl PhaseKind {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            PhaseKind::Source => "source",
            PhaseKind::Map => "map",
            PhaseKind::Shuffle => "shuffle",
            PhaseKind::Reduce => "reduce",
            PhaseKind::Join => "join",
            PhaseKind::Action => "action",
            PhaseKind::Sink => "sink",
            PhaseKind::Broadcast => "broadcast",
        }
    }
}

/// One executed phase.
#[derive(Clone, Debug)]
pub struct PhaseRecord {
    /// Operator name (user-facing, e.g. `"gpuMapPartition(addPoint)"`).
    pub name: String,
    /// Phase kind.
    pub kind: PhaseKind,
    /// Parallelism the phase ran with.
    pub parallelism: usize,
    /// Wall-clock (simulated) duration of the phase.
    pub wall: SimTime,
    /// Logical elements processed.
    pub elements: u64,
}

/// The ordered list of executed phases for one job.
#[derive(Clone, Debug, Default)]
pub struct JobGraph {
    phases: Vec<PhaseRecord>,
}

impl JobGraph {
    /// An empty graph.
    pub fn new() -> Self {
        JobGraph::default()
    }

    /// Append a phase record.
    pub fn push(&mut self, rec: PhaseRecord) {
        self.phases.push(rec);
    }

    /// All phases in execution order.
    pub fn phases(&self) -> &[PhaseRecord] {
        &self.phases
    }

    /// Number of phases.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// True when nothing has executed.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Render the DAG as an ASCII chain (phases are linear per job here).
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push_str(" -> ");
            }
            s.push_str(&format!("[{} {}:{}]", i, p.kind.label(), p.name));
        }
        s
    }
}

impl fmt::Display for JobGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<4} {:<9} {:<36} {:>5} {:>12} {:>14}",
            "#", "kind", "name", "par", "wall", "elements"
        )?;
        for (i, p) in self.phases.iter().enumerate() {
            writeln!(
                f,
                "{:<4} {:<9} {:<36} {:>5} {:>12} {:>14}",
                i,
                p.kind.label(),
                p.name,
                p.parallelism,
                format!("{}", p.wall),
                p.elements
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, kind: PhaseKind, wall_ms: u64) -> PhaseRecord {
        PhaseRecord {
            name: name.into(),
            kind,
            parallelism: 4,
            wall: SimTime::from_millis(wall_ms),
            elements: 100,
        }
    }

    #[test]
    fn records_accumulate_in_order() {
        let mut g = JobGraph::new();
        g.push(rec("read", PhaseKind::Source, 10));
        g.push(rec("map", PhaseKind::Map, 20));
        assert_eq!(g.len(), 2);
        assert_eq!(g.phases()[1].name, "map");
    }

    #[test]
    fn render_chains_phases() {
        let mut g = JobGraph::new();
        g.push(rec("read", PhaseKind::Source, 1));
        g.push(rec("wc", PhaseKind::Reduce, 1));
        assert_eq!(g.render(), "[0 source:read] -> [1 reduce:wc]");
    }

    #[test]
    fn display_lists_all() {
        let mut g = JobGraph::new();
        g.push(rec("a", PhaseKind::Map, 1));
        let out = format!("{g}");
        assert!(out.contains("map"));
        assert!(out.contains('a'));
        assert!(!g.is_empty());
    }
}
