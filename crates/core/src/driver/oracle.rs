//! The read oracle of a verified replay: what a live file must hold, kept
//! as constant-fill runs instead of a second copy of the bytes.
//!
//! Every write the driver issues is one byte repeated
//! (`fill_byte(path, version)`), so a file is a handful of runs however
//! long it is: a create is one run, an update splits at most two and adds
//! one. Checking a read is then one pass over the bytes that came back —
//! warm from the decode that produced them — against a byte held in a
//! register, where comparing with a materialised copy streamed a second
//! buffer of the same size from memory and kept the whole data set live
//! twice. The verdict is the one `==` against the materialised bytes
//! gives, for every input (`tests/read_oracle_model.rs`).

/// Runs a file's list is allocated for — 256 bytes, once, at its create.
/// The PostMark pools never pass 10 runs a file, so their lists never
/// grow; the outage workload's 21 updates a file reach 38 and grow twice.
const TYPICAL_RUNS: usize = 16;

/// The bytes a file must hold, as runs of one repeated byte.
#[derive(Debug)]
pub struct Expected {
    /// `(end offset, fill)` of each run. A run starts where the one
    /// before it ends (the first at 0); ends ascend strictly, so no run
    /// is empty, and no two neighbours share a fill.
    runs: Vec<(u64, u8)>,
}

impl Expected {
    /// A file of `len` bytes, all `fill`.
    pub fn filled(len: u64, fill: u8) -> Self {
        let mut runs = Vec::new();
        if len > 0 {
            runs.reserve_exact(TYPICAL_RUNS);
            runs.push((len, fill));
        }
        Expected { runs }
    }

    /// Length of the file.
    pub fn len(&self) -> u64 {
        self.runs.last().map_or(0, |&(end, _)| end)
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of runs the file is held as.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Overwrites `[offset, offset + len)` with `fill`, in place: the runs
    /// the window covers give way to it, the two it cuts keep what lies
    /// outside it, and a neighbour of the same fill absorbs it.
    ///
    /// # Panics
    /// If the window reaches past the end of the file.
    pub fn patch(&mut self, offset: u64, len: u64, fill: u8) {
        let end = offset + len;
        assert!(end <= self.len(), "patch {offset}+{len} outside a file of {} bytes", self.len());
        if len == 0 {
            return;
        }
        let first = self.runs.partition_point(|&(run_end, _)| run_end <= offset);
        let last = self.runs.partition_point(|&(run_end, _)| run_end < end);
        let first_start = first.checked_sub(1).map_or(0, |before| self.runs[before].0);
        let (head, tail) = ((offset, self.runs[first].1), self.runs[last]);
        let kept = [head, (end, fill), tail];
        let from = usize::from(offset == first_start);
        let to = 3 - usize::from(tail.0 == end);
        self.runs.splice(first..=last, kept[from..to].iter().copied());
        // A boundary between equal fills is no boundary: the later run
        // absorbs the earlier one.
        self.runs.dedup_by(|later, earlier| {
            let same = later.1 == earlier.1;
            if same {
                earlier.0 = later.0;
            }
            same
        });
    }

    /// Whether `bytes` is exactly this file: the length first, then every
    /// byte against its run's fill.
    pub fn matches(&self, bytes: &[u8]) -> bool {
        if bytes.len() as u64 != self.len() {
            return false;
        }
        let mut start = 0;
        self.runs.iter().all(|&(end, fill)| {
            let run = &bytes[start..end as usize];
            start = end as usize;
            // An OR-fold has no early exit to stop the vectoriser, and a
            // mismatch is the rare verdict.
            run.iter().fold(0, |diff, &b| diff | (b ^ fill)) == 0
        })
    }

    /// The file's bytes, materialised.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(self.len() as usize);
        for &(end, fill) in &self.runs {
            bytes.resize(end as usize, fill);
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patches_split_replace_and_coalesce() {
        let mut file = Expected::filled(100, 1);
        file.patch(10, 20, 2);
        assert_eq!(file.runs, [(10, 1), (30, 2), (100, 1)]);
        file.patch(30, 5, 2); // extends its left neighbour
        assert_eq!(file.runs, [(10, 1), (35, 2), (100, 1)]);
        file.patch(5, 40, 3); // swallows a run, cuts two
        assert_eq!(file.runs, [(5, 1), (45, 3), (100, 1)]);
        file.patch(0, 5, 3); // whole first run, same fill as the next
        assert_eq!(file.runs, [(45, 3), (100, 1)]);
        file.patch(45, 55, 3); // whole last run
        assert_eq!(file.runs, [(100, 3)]);
        file.patch(99, 1, 4);
        file.patch(50, 0, 9); // an empty window changes nothing
        assert_eq!(file.runs, [(99, 3), (100, 4)]);
        assert_eq!(file.to_vec(), [vec![3u8; 99], vec![4u8]].concat());
        assert!(file.matches(&file.to_vec()));
    }

    #[test]
    fn an_empty_file_matches_only_nothing() {
        let file = Expected::filled(0, 7);
        assert!(file.is_empty() && file.matches(&[]) && !file.matches(&[7]));
        assert_eq!(file.to_vec(), Vec::<u8>::new());
    }

    #[test]
    #[should_panic(expected = "outside a file of 10 bytes")]
    fn a_patch_past_the_end_is_a_caller_bug() {
        Expected::filled(10, 0).patch(8, 3, 1);
    }
}
