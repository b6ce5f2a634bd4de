//! The I/O boundary of the store.
//!
//! Everything the WAL and snapshot layers do to stable storage goes
//! through [`DiskManager`]: named append-only files, an explicit sync
//! point, and a `crash()` hook that discards whatever was appended but
//! not yet synced. Two backends implement it:
//!
//! * [`FileDisk`] — real files under a root directory. Appends are
//!   buffered in memory; `sync` flushes the buffer with `write_all` and
//!   `File::sync_all`, which is the store's durability point. File
//!   creations and removals additionally `sync_all` the root directory
//!   (on unix), so a new segment or checkpoint cannot vanish from the
//!   directory after a power loss even though its data was synced.
//! * [`MemDisk`] — a deterministic in-memory filesystem for the
//!   simulator and tests. `crash` truncates each file to its last
//!   synced length, which models exactly what `FileDisk` loses.
//!
//! Both backends enumerate files in sorted name order so recovery scans
//! are byte-identical regardless of backend or directory enumeration
//! order.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::PathBuf;

/// Abstract append-only storage used by [`crate::CoordinatorStore`].
///
/// Files are flat names (no directories). Appends become durable only
/// at the next `sync` of the same file; `crash` models a power loss at
/// this instant and must discard all unsynced appends.
pub trait DiskManager: Send {
    /// Append `data` to `file`, creating it if absent. Not durable
    /// until [`DiskManager::sync`] is called for the same file.
    fn append(&mut self, file: &str, data: &[u8]) -> io::Result<()>;
    /// Make all prior appends to `file` durable.
    fn sync(&mut self, file: &str) -> io::Result<()>;
    /// Read the full contents of `file`, including unsynced appends.
    fn read(&self, file: &str) -> io::Result<Vec<u8>>;
    /// All file names, sorted ascending.
    fn list(&self) -> io::Result<Vec<String>>;
    /// Delete `file`. Deleting a missing file is not an error.
    fn remove(&mut self, file: &str) -> io::Result<()>;
    /// Simulate a crash: drop every append that was not synced.
    fn crash(&mut self);
}

impl DiskManager for Box<dyn DiskManager> {
    fn append(&mut self, file: &str, data: &[u8]) -> io::Result<()> {
        (**self).append(file, data)
    }
    fn sync(&mut self, file: &str) -> io::Result<()> {
        (**self).sync(file)
    }
    fn read(&self, file: &str) -> io::Result<Vec<u8>> {
        (**self).read(file)
    }
    fn list(&self) -> io::Result<Vec<String>> {
        (**self).list()
    }
    fn remove(&mut self, file: &str) -> io::Result<()> {
        (**self).remove(file)
    }
    fn crash(&mut self) {
        (**self).crash()
    }
}

/// Real-file backend rooted at a directory.
///
/// Appends accumulate in a per-file buffer; `sync` writes the buffer
/// out with `O_APPEND` semantics and calls `sync_all`. A process crash
/// before `sync` therefore loses exactly the buffered bytes, matching
/// [`MemDisk::crash`].
pub struct FileDisk {
    root: PathBuf,
    buffers: BTreeMap<String, Vec<u8>>,
}

impl FileDisk {
    /// Open (creating if needed) a disk rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(FileDisk { root, buffers: BTreeMap::new() })
    }

    fn path(&self, file: &str) -> PathBuf {
        self.root.join(file)
    }

    /// Sync the root directory itself, so file creations and removals
    /// survive a power loss. Without this a freshly created segment or
    /// checkpoint could vanish from the directory even though its data
    /// bytes were synced.
    fn sync_root(&self) -> io::Result<()> {
        #[cfg(unix)]
        fs::File::open(&self.root)?.sync_all()?;
        Ok(())
    }
}

impl DiskManager for FileDisk {
    fn append(&mut self, file: &str, data: &[u8]) -> io::Result<()> {
        self.buffers.entry(file.to_string()).or_default().extend_from_slice(data);
        Ok(())
    }

    fn sync(&mut self, file: &str) -> io::Result<()> {
        let Some(buf) = self.buffers.get(file) else { return Ok(()) };
        if buf.is_empty() {
            self.buffers.remove(file);
            return Ok(());
        }
        let created = !self.path(file).exists();
        let mut f = fs::OpenOptions::new().create(true).append(true).open(self.path(file))?;
        let durable = f.metadata()?.len();
        if let Err(e) = f.write_all(buf).and_then(|()| f.sync_all()) {
            // The buffer stays, and the file at its durable length, so a
            // retry writes the bytes exactly once.
            let _ = f.set_len(durable);
            return Err(e);
        }
        self.buffers.remove(file);
        if created {
            self.sync_root()?;
        }
        Ok(())
    }

    fn read(&self, file: &str) -> io::Result<Vec<u8>> {
        let mut data = match fs::read(self.path(file)) {
            Ok(d) => d,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        if let Some(buf) = self.buffers.get(file) {
            data.extend_from_slice(buf);
        }
        if data.is_empty() && !self.buffers.contains_key(file) && !self.path(file).exists() {
            return Err(io::Error::new(io::ErrorKind::NotFound, format!("no such file: {file}")));
        }
        Ok(data)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut names: Vec<String> = fs::read_dir(&self.root)?
            .filter_map(|e| e.ok())
            .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();
        for name in self.buffers.keys() {
            if !names.contains(name) {
                names.push(name.clone());
            }
        }
        names.sort();
        Ok(names)
    }

    fn remove(&mut self, file: &str) -> io::Result<()> {
        self.buffers.remove(file);
        match fs::remove_file(self.path(file)) {
            Ok(()) => self.sync_root(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn crash(&mut self) {
        self.buffers.clear();
    }
}

#[derive(Default, Clone)]
struct MemFile {
    /// Length of the durable prefix; bytes past this are lost on crash.
    synced: usize,
    data: Vec<u8>,
}

/// Deterministic in-memory backend.
///
/// Behaves exactly like [`FileDisk`] from the store's point of view,
/// including crash semantics, but never touches the real filesystem —
/// so simulator runs stay hermetic and replay bit-identically.
#[derive(Default)]
pub struct MemDisk {
    files: BTreeMap<String, MemFile>,
}

impl MemDisk {
    pub fn new() -> Self {
        Self::default()
    }

    /// Raw contents of `file` (durable + unsynced) — torture-test hook.
    pub fn contents(&self, file: &str) -> Option<Vec<u8>> {
        self.files.get(file).map(|f| f.data.clone())
    }

    /// Overwrite `file` with `data`, marking all of it synced —
    /// torture-test hook for injecting corruption.
    pub fn set_contents(&mut self, file: &str, data: Vec<u8>) {
        self.files.insert(file.to_string(), MemFile { synced: data.len(), data });
    }
}

impl DiskManager for MemDisk {
    fn append(&mut self, file: &str, data: &[u8]) -> io::Result<()> {
        self.files.entry(file.to_string()).or_default().data.extend_from_slice(data);
        Ok(())
    }

    fn sync(&mut self, file: &str) -> io::Result<()> {
        if let Some(f) = self.files.get_mut(file) {
            f.synced = f.data.len();
        }
        Ok(())
    }

    fn read(&self, file: &str) -> io::Result<Vec<u8>> {
        self.files
            .get(file)
            .map(|f| f.data.clone())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no such file: {file}")))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self.files.keys().cloned().collect())
    }

    fn remove(&mut self, file: &str) -> io::Result<()> {
        self.files.remove(file);
        Ok(())
    }

    fn crash(&mut self) {
        for f in self.files.values_mut() {
            f.data.truncate(f.synced);
        }
        self.files.retain(|_, f| f.synced > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memdisk_crash_discards_unsynced_tail() {
        let mut d = MemDisk::new();
        d.append("a.log", b"one").unwrap();
        d.sync("a.log").unwrap();
        d.append("a.log", b"two").unwrap();
        d.append("b.log", b"never synced").unwrap();
        d.crash();
        assert_eq!(d.read("a.log").unwrap(), b"one");
        assert!(d.read("b.log").is_err());
        assert_eq!(d.list().unwrap(), vec!["a.log".to_string()]);
    }

    #[test]
    fn memdisk_read_includes_unsynced() {
        let mut d = MemDisk::new();
        d.append("a.log", b"one").unwrap();
        assert_eq!(d.read("a.log").unwrap(), b"one");
    }

    #[test]
    fn filedisk_round_trip_and_crash() {
        let root = std::env::temp_dir().join(format!(
            "automon-store-test-{}-{}",
            std::process::id(),
            "round_trip"
        ));
        let _ = fs::remove_dir_all(&root);
        let mut d = FileDisk::open(&root).unwrap();
        d.append("w.log", b"alpha").unwrap();
        // Unsynced appends are visible to read()...
        assert_eq!(d.read("w.log").unwrap(), b"alpha");
        d.sync("w.log").unwrap();
        d.append("w.log", b"beta").unwrap();
        // ...but lost on crash.
        d.crash();
        assert_eq!(d.read("w.log").unwrap(), b"alpha");
        assert_eq!(d.list().unwrap(), vec!["w.log".to_string()]);
        d.remove("w.log").unwrap();
        assert!(d.list().unwrap().is_empty());
        let _ = fs::remove_dir_all(&root);
    }

    /// A sync that fails keeps the bytes it could not write: a retry that
    /// succeeds makes them durable. `MemDisk` keeps unsynced bytes alike.
    #[test]
    fn a_failed_sync_keeps_the_unsynced_bytes() {
        let root = std::env::temp_dir()
            .join(format!("automon-store-test-{}-{}", std::process::id(), "failed_sync"));
        let _ = fs::remove_dir_all(&root);
        let mut d = FileDisk::open(&root).unwrap();
        d.append("w.log", b"alpha").unwrap();
        // A directory squatting on the file name fails the write.
        fs::create_dir(root.join("w.log")).unwrap();
        assert!(d.sync("w.log").is_err());
        fs::remove_dir(root.join("w.log")).unwrap();
        assert_eq!(d.read("w.log").unwrap(), b"alpha", "still buffered");
        d.sync("w.log").unwrap();
        d.crash();
        assert_eq!(d.read("w.log").unwrap(), b"alpha", "durable after the retry");
        let _ = fs::remove_dir_all(&root);

        let mut m = MemDisk::new();
        m.append("w.log", b"alpha").unwrap();
        assert_eq!(m.read("w.log").unwrap(), b"alpha", "still unsynced");
        m.sync("w.log").unwrap();
        m.crash();
        assert_eq!(m.read("w.log").unwrap(), b"alpha");
    }
}
