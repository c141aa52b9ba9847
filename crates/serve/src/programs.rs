//! The daemon's program table: every program it has parsed, keyed by
//! the [`Program::digest`] the daemon computed itself, so a request may
//! name a program by digest instead of carrying its image (DESIGN.md
//! §13).

use sdo_harness::Program;
use std::collections::HashMap;

/// Resident program bytes (instructions and data image) the table keeps
/// before it evicts the least recently used programs: about 270 copies
/// of a Figure 6 kernel.
pub(crate) const PROGRAM_TABLE_BYTES: usize = 16 << 20;

/// A byte-bounded, least-recently-used map from digest to program.
#[derive(Debug)]
pub(crate) struct ProgramTable {
    entries: HashMap<[u8; 32], Resident>,
    bound: usize,
    resident_bytes: usize,
    clock: u64,
    uploads: u64,
}

#[derive(Debug)]
struct Resident {
    program: Program,
    bytes: usize,
    last_used: u64,
}

impl ProgramTable {
    pub(crate) fn new(bound: usize) -> Self {
        ProgramTable {
            entries: HashMap::new(),
            bound,
            resident_bytes: 0,
            clock: 0,
            uploads: 0,
        }
    }

    /// Programs resident now.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Full programs received since the table was created.
    pub(crate) fn uploads(&self) -> u64 {
        self.uploads
    }

    /// Registers an uploaded program under `digest`, which the caller
    /// computed from the program, and returns the resident copy: a
    /// program already resident is kept, so every request for it shares
    /// one image and its memoised digest. Least recently used programs
    /// are evicted while the table is over its bound; the newest is
    /// always kept.
    pub(crate) fn insert(&mut self, digest: [u8; 32], program: Program) -> Program {
        self.uploads += 1;
        self.clock += 1;
        let clock = self.clock;
        if let Some(resident) = self.entries.get_mut(&digest) {
            resident.last_used = clock;
            return resident.program.clone();
        }
        let bytes = program.data().len()
            + std::mem::size_of_val(program.instructions())
            + program.name().len();
        self.resident_bytes += bytes;
        self.entries.insert(digest, Resident { program: program.clone(), bytes, last_used: clock });
        while self.resident_bytes > self.bound && self.entries.len() > 1 {
            let oldest = self.entries.iter().min_by_key(|(_, r)| r.last_used).map(|(d, _)| *d);
            if let Some(evicted) = oldest.and_then(|d| self.entries.remove(&d)) {
                self.resident_bytes -= evicted.bytes;
            }
        }
        program
    }

    /// The program registered under `digest`, marked as just used.
    pub(crate) fn get(&mut self, digest: &[u8; 32]) -> Option<Program> {
        self.clock += 1;
        let resident = self.entries.get_mut(digest)?;
        resident.last_used = self.clock;
        Some(resident.program.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdo_workloads::kernels::l1_resident;

    #[test]
    fn least_recently_used_programs_are_evicted_first() {
        let progs: Vec<Program> = (1..=3).map(|k| l1_resident(40 * k, 1)).collect();
        let digests: Vec<[u8; 32]> = progs.iter().map(Program::digest).collect();
        let one = ProgramTable::new(usize::MAX).insert(digests[0], progs[0].clone());
        assert_eq!(one, progs[0]);

        // Room for the two largest programs, not all three.
        let mut sized = ProgramTable::new(usize::MAX);
        for (d, p) in digests.iter().zip(&progs) {
            sized.insert(*d, p.clone());
        }
        let bound = sized.resident_bytes - sized.entries[&digests[0]].bytes;
        let mut table = ProgramTable::new(bound);
        table.insert(digests[0], progs[0].clone());
        table.insert(digests[1], progs[1].clone());
        assert!(table.get(&digests[0]).is_some(), "touch program 0 so 1 is the oldest");
        table.insert(digests[2], progs[2].clone());
        assert!(table.get(&digests[1]).is_none(), "the least recently used program went");
        assert_eq!(table.get(&digests[0]).as_ref(), Some(&progs[0]));
        assert_eq!(table.get(&digests[2]).as_ref(), Some(&progs[2]));
        assert_eq!((table.len(), table.uploads()), (2, 3));
        assert!(table.resident_bytes <= bound);

        // A program larger than the whole bound is still kept (newest).
        let mut tiny = ProgramTable::new(1);
        tiny.insert(digests[0], progs[0].clone());
        tiny.insert(digests[1], progs[1].clone());
        assert_eq!(tiny.len(), 1);
        assert!(tiny.get(&digests[1]).is_some());
    }

    #[test]
    fn re_registering_a_resident_program_keeps_the_shared_copy() {
        let prog = l1_resident(40, 1);
        let digest = prog.digest();
        let mut table = ProgramTable::new(usize::MAX);
        table.insert(digest, prog.clone());
        let bytes = table.resident_bytes;
        let again = table.insert(digest, prog.clone());
        assert_eq!(again, prog);
        assert_eq!((table.len(), table.uploads(), table.resident_bytes), (1, 2, bytes));
    }
}
