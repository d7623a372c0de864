//! Marker-id unification (§3.1).
//!
//! Scans every raw trace file's `MarkerDef` records and assigns one
//! globally unique identifier per distinct marker *string*. The mapping
//! from each task's local id to the unified id is kept so begin/end marker
//! events can be rewritten during conversion.

use std::collections::HashMap;

use ute_core::error::Result;
use ute_core::event::EventCode;
use ute_rawtrace::record::MarkerDefPayload;

use crate::matcher::RawRecords;

/// Job-wide marker identifier assignment.
#[derive(Debug, Clone, Default)]
pub struct MarkerMap {
    /// Unified id per marker string, in first-seen order (ids from 1).
    by_name: HashMap<String, u32>,
    /// (task rank, task-local id) → unified id.
    by_task_local: HashMap<(u32, u32), u32>,
    /// Unified id → string, for the interval file's marker table.
    names: Vec<(u32, String)>,
}

impl MarkerMap {
    /// Scans all files' MarkerDef records.
    pub fn build<R: RawRecords>(files: &[R]) -> Result<MarkerMap> {
        let mut m = MarkerMap::default();
        for f in files {
            for e in f.records() {
                if e.code == EventCode::MarkerDef {
                    let def = MarkerDefPayload::from_bytes(e.payload)?;
                    let next = m.by_name.len() as u32 + 1;
                    let id = *m.by_name.entry(def.name.clone()).or_insert_with(|| {
                        m.names.push((next, def.name.clone()));
                        next
                    });
                    m.by_task_local.insert((def.rank, def.local_id), id);
                }
            }
        }
        Ok(m)
    }

    /// The unified id of a task-local marker id.
    pub fn unify(&self, rank: u32, local_id: u32) -> Option<u32> {
        self.by_task_local.get(&(rank, local_id)).copied()
    }

    /// The unified id of a marker string.
    pub fn id_of(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    /// The unified (id, string) table, for interval-file headers.
    pub fn table(&self) -> &[(u32, String)] {
        &self.names
    }

    /// Number of distinct marker strings.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no markers were defined.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ute_core::ids::NodeId;
    use ute_core::time::LocalTime;
    use ute_rawtrace::file::RawTraceFile;
    use ute_rawtrace::record::RawEvent;

    fn def(rank: u32, local_id: u32, name: &str, t: u64) -> RawEvent {
        RawEvent::new(
            EventCode::MarkerDef,
            LocalTime(t),
            MarkerDefPayload {
                local_id,
                rank,
                name: name.into(),
            }
            .to_bytes(),
        )
    }

    #[test]
    fn same_string_different_tasks_unify() {
        // Task 0 defines "Init" as local id 1; task 1 defines "Other" as
        // 1 and "Init" as 2 — the §3.1 collision.
        let f0 = RawTraceFile::new(NodeId(0), vec![def(0, 1, "Init", 10)]);
        let f1 = RawTraceFile::new(NodeId(1), vec![def(1, 1, "Other", 5), def(1, 2, "Init", 6)]);
        let m = MarkerMap::build(&[f0, f1]).unwrap();
        assert_eq!(m.len(), 2);
        let init = m.id_of("Init").unwrap();
        let other = m.id_of("Other").unwrap();
        assert_ne!(init, other);
        assert_eq!(m.unify(0, 1), Some(init));
        assert_eq!(m.unify(1, 2), Some(init));
        assert_eq!(m.unify(1, 1), Some(other));
        assert_eq!(m.unify(9, 9), None);
    }

    #[test]
    fn table_lists_each_string_once() {
        let f0 = RawTraceFile::new(
            NodeId(0),
            vec![def(0, 1, "A", 1), def(1, 1, "A", 2), def(1, 2, "B", 3)],
        );
        let m = MarkerMap::build(&[f0]).unwrap();
        assert_eq!(m.table().len(), 2);
        let names: Vec<&str> = m.table().iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(names, vec!["A", "B"]);
    }

    #[test]
    fn empty_files_empty_map() {
        let m = MarkerMap::build::<RawTraceFile>(&[]).unwrap();
        assert!(m.is_empty());
    }
}
