//! Crash-safe sweep journals: the accounting half of `--resume`.
//!
//! A [`SweepJournal`] is an append-only NDJSON file living **beside** a
//! [`ResultStore`](super::store::ResultStore) (dot-prefixed, so the
//! store's row scan ignores it). The first line pins the journal to a
//! specific job list — a fingerprint folded over every job's
//! schedule-level [`CacheKey`] plus the list length — and every
//! subsequent line records one completed job index, flushed as soon as
//! the job's summary is persisted:
//!
//! ```text
//! {"version":1,"sweep":"a31f…","total":26,"shard":"0of2"}
//! {"done":4}
//! {"done":0}
//! ```
//!
//! Division of labor: the **store rows are the data**, the journal is
//! the *progress accounting and guard*. On `--resume` the header is
//! validated against the current job list (a different sweep or shard
//! layout starts fresh rather than mis-resuming), completed indices are
//! replayed tolerantly (a torn trailing line from a SIGKILL is ignored),
//! and the batch runner replays completed jobs from the store — so the
//! resumed artifact is byte-identical to an uninterrupted run, and a
//! journal entry whose row was meanwhile evicted merely recomputes.

use std::collections::BTreeSet;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use super::fingerprint::{CacheKey, FnvWriter};
use super::sweep::SweepJob;

/// On-disk format version of the journal header.
pub const JOURNAL_FORMAT_VERSION: u32 = 1;

#[derive(Debug, Serialize, Deserialize, Default, PartialEq)]
struct JournalHeader {
    version: u32,
    sweep: String,
    total: u64,
    shard: String,
}

#[derive(Debug, Serialize, Deserialize, Default)]
struct JournalEntry {
    done: u64,
}

/// Fingerprint of a job list: an FNV-1a fold over every job's
/// schedule-level cache key, plus the list length — the identity a
/// journal is pinned to.
pub fn sweep_fingerprint(jobs: &[SweepJob]) -> u64 {
    let mut w = FnvWriter::new();
    w.write_bytes(&(jobs.len() as u64).to_le_bytes());
    for job in jobs {
        let key = CacheKey::schedule(job.model_fp, &job.config);
        w.write_bytes(&key.model.to_le_bytes());
        w.write_bytes(&key.arch.to_le_bytes());
        w.write_bytes(&key.strategy.to_le_bytes());
    }
    w.finish()
}

/// An append-only completion journal for one sweep over one store
/// directory. See the module docs for format and semantics.
#[derive(Debug)]
pub struct SweepJournal {
    path: PathBuf,
    total: usize,
    resumed: usize,
    state: Mutex<JournalState>,
}

#[derive(Debug)]
struct JournalState {
    file: File,
    done: BTreeSet<usize>,
}

impl SweepJournal {
    /// Opens (or creates) the journal for `jobs` in `dir`.
    ///
    /// With `resume = false` any existing journal is discarded and a
    /// fresh one is started. With `resume = true` an existing journal
    /// whose header matches this job list is replayed (its completed
    /// indices count toward [`resumed_count`](Self::resumed_count)); a
    /// missing, torn, or mismatching journal falls back to a fresh start —
    /// resuming the wrong sweep would be worse than restarting.
    ///
    /// `shard` distinguishes concurrent slices of the same sharded sweep
    /// sharing one store directory; pass `None` for unsharded runs.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors creating or writing the journal file.
    pub fn open(
        dir: &Path,
        jobs: &[SweepJob],
        shard: Option<&str>,
        resume: bool,
    ) -> io::Result<SweepJournal> {
        let fp = sweep_fingerprint(jobs);
        let tag = shard.unwrap_or("all");
        let path = dir.join(format!(".journal-{fp:016x}-{tag}.ndjson"));
        let expected = JournalHeader {
            version: JOURNAL_FORMAT_VERSION,
            sweep: format!("{fp:016x}"),
            total: jobs.len() as u64,
            shard: tag.to_string(),
        };

        let mut done = BTreeSet::new();
        if resume {
            if let Some(replayed) = replay(&path, &expected, jobs.len()) {
                done = replayed;
            }
        }

        if done.is_empty() {
            // Fresh start (or an unusable previous journal): truncate and
            // re-write the header so the file is always internally
            // consistent.
            let mut file = File::create(&path)?;
            let header = serde_json::to_string(&expected)
                .expect("journal header serializes"); // cim-lint: allow(panic-unwrap) plain struct of scalars
            writeln!(file, "{header}")?;
            file.flush()?;
            return Ok(SweepJournal {
                path,
                total: jobs.len(),
                resumed: 0,
                state: Mutex::new(JournalState { file, done }),
            });
        }

        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(SweepJournal {
            path,
            total: jobs.len(),
            resumed: done.len(),
            state: Mutex::new(JournalState { file, done }),
        })
    }

    /// Jobs in the journaled list.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Completed indices replayed from a previous run at open time.
    pub fn resumed_count(&self) -> usize {
        self.resumed
    }

    /// Records job `index` as completed, appending and flushing one
    /// journal line. Idempotent; journal I/O failures are swallowed —
    /// the journal is accounting, never allowed to fail the sweep.
    pub fn mark(&self, index: usize) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if !state.done.insert(index) {
            return;
        }
        let entry = JournalEntry { done: index as u64 };
        let line = serde_json::to_string(&entry)
            .expect("journal entry serializes"); // cim-lint: allow(panic-unwrap) plain struct of scalars
        let _ = writeln!(state.file, "{line}");
        let _ = state.file.flush();
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Removes the journal file after a fully-successful sweep — a
    /// subsequent `--resume` then starts a (trivially warm) fresh run.
    pub fn finish(self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Replays an existing journal file. Returns the completed set if the
/// header matches `expected`, `None` if the file is absent, torn at the
/// header, or belongs to a different sweep. Unparseable or out-of-range
/// entry lines (a torn tail from a SIGKILL) are ignored.
fn replay(path: &Path, expected: &JournalHeader, total: usize) -> Option<BTreeSet<usize>> {
    let file = File::open(path).ok()?;
    let mut lines = BufReader::new(file).lines();
    let header_line = lines.next()?.ok()?;
    let header: JournalHeader = serde_json::from_str(&header_line).ok()?;
    if header != *expected {
        return None;
    }
    let mut done = BTreeSet::new();
    for line in lines {
        let Ok(line) = line else { break };
        let Ok(entry) = serde_json::from_str::<JournalEntry>(&line) else {
            continue;
        };
        if (entry.done as usize) < total {
            done.insert(entry.done as usize);
        }
    }
    Some(done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::SweepOptions;
    use crate::runner::sweep::sweep_jobs;

    impl SweepJournal {
        /// Completed indices known so far (replayed + marked this run).
        pub(crate) fn completed_count(&self) -> usize {
            let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            state.done.len()
        }

        /// Was job `index` already completed (this run or a previous one)?
        fn is_completed(&self, index: usize) -> bool {
            let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            state.done.contains(&index)
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cim_journal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn jobs() -> Vec<SweepJob> {
        let g = cim_models::fig5_example();
        sweep_jobs("fig5", &g, &SweepOptions { xs: vec![1], ..Default::default() }).unwrap()
    }

    #[test]
    fn fresh_open_marks_and_resumes() {
        let dir = tmp_dir("mark");
        let jobs = jobs();
        let journal = SweepJournal::open(&dir, &jobs, None, false).unwrap();
        assert_eq!(journal.resumed_count(), 0);
        journal.mark(0);
        journal.mark(2);
        journal.mark(2); // idempotent
        assert!(journal.is_completed(2));
        assert!(!journal.is_completed(1));
        drop(journal);

        let resumed = SweepJournal::open(&dir, &jobs, None, true).unwrap();
        assert_eq!(resumed.resumed_count(), 2);
        assert!(resumed.is_completed(0));
        assert!(resumed.is_completed(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_resume_open_discards_previous_progress() {
        let dir = tmp_dir("discard");
        let jobs = jobs();
        let journal = SweepJournal::open(&dir, &jobs, None, false).unwrap();
        journal.mark(1);
        drop(journal);
        let fresh = SweepJournal::open(&dir, &jobs, None, false).unwrap();
        assert_eq!(fresh.resumed_count(), 0);
        assert!(!fresh.is_completed(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatching_job_list_starts_fresh() {
        let dir = tmp_dir("mismatch");
        let full = jobs();
        let journal = SweepJournal::open(&dir, &full, None, false).unwrap();
        journal.mark(0);
        drop(journal);
        // Same directory, different sweep (shorter list) — must not
        // inherit the other journal's progress.
        let other = &full[..2];
        let resumed = SweepJournal::open(&dir, other, None, true).unwrap();
        assert_eq!(resumed.resumed_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let dir = tmp_dir("torn");
        let jobs = jobs();
        let journal = SweepJournal::open(&dir, &jobs, None, false).unwrap();
        journal.mark(0);
        journal.mark(3);
        let path = journal.path().to_path_buf();
        drop(journal);
        // Simulate a SIGKILL mid-append: a torn, non-JSON trailing line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"do");
        std::fs::write(&path, text).unwrap();

        let resumed = SweepJournal::open(&dir, &jobs, None, true).unwrap();
        assert_eq!(resumed.resumed_count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_tags_keep_slice_journals_apart() {
        let dir = tmp_dir("shard");
        let jobs = jobs();
        let a = SweepJournal::open(&dir, &jobs, Some("0of2"), false).unwrap();
        let b = SweepJournal::open(&dir, &jobs, Some("1of2"), false).unwrap();
        a.mark(0);
        assert_ne!(a.path(), b.path());
        drop((a, b));
        let a2 = SweepJournal::open(&dir, &jobs, Some("0of2"), true).unwrap();
        let b2 = SweepJournal::open(&dir, &jobs, Some("1of2"), true).unwrap();
        assert_eq!(a2.resumed_count(), 1);
        assert_eq!(b2.resumed_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finish_removes_the_file() {
        let dir = tmp_dir("finish");
        let jobs = jobs();
        let journal = SweepJournal::open(&dir, &jobs, None, false).unwrap();
        let path = journal.path().to_path_buf();
        journal.mark(0);
        assert!(path.exists());
        journal.finish();
        assert!(!path.exists());
        let resumed = SweepJournal::open(&dir, &jobs, None, true).unwrap();
        assert_eq!(resumed.resumed_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_is_invisible_to_the_store_scan() {
        let dir = tmp_dir("scan");
        let jobs = jobs();
        let journal = SweepJournal::open(&dir, &jobs, None, false).unwrap();
        journal.mark(0);
        let store = crate::runner::store::ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 0);
        assert!(journal.path().exists(), "store open must not sweep the journal");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
