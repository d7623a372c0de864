//! How a command gets an artifact's bytes: a read-only file mapping
//! with a portable fallback.
//!
//! [`map_file`] memory-maps a file on 64-bit Linux through a direct
//! `mmap(2)` FFI binding (no external crates — the same pattern as
//! `ute-profile`'s `clock_gettime` binding) and falls back to
//! [`std::fs::read`] on other targets, for empty files, or whenever the
//! map call fails. The returned [`FileBytes`] derefs to `&[u8]` either
//! way, so decode layers never know the difference: every reader of a
//! record-bearing artifact (raw, interval, SLOG) takes a slice, and a
//! reader that walks a frame directory touches only the pages of the
//! directories and frames it decodes.
//!
//! Validation contract: nothing here inspects the bytes. The readers
//! bounds-check every offset a file names against the slice's length
//! ([`crate::codec::ByteReader`], `RawTraceView::open`), so a borrowed
//! view never touches memory outside the mapping. The mapped file must
//! not be truncated while the map lives — every UTE writer of a mapped
//! artifact replaces the whole file by rename (the atomic artifact
//! store), never rewrites it in place; a command that rewrites the file
//! it read (`ute corrupt`) reads it with [`std::fs::read`] instead.

use std::ops::Deref;
use std::path::Path;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    pub const PROT_READ: i32 = 0x1;
    pub const MAP_PRIVATE: i32 = 0x2;

    extern "C" {
        pub fn mmap(
            addr: *mut u8,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut u8;
        pub fn munmap(addr: *mut u8, length: usize) -> i32;
    }
}

/// An owning read-only memory mapping.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub struct Mapping {
    ptr: *mut u8,
    len: usize,
}

// The mapping is read-only for its entire lifetime; the pointer is not
// aliased mutably anywhere.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
unsafe impl Send for Mapping {}
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
unsafe impl Sync for Mapping {}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
impl Deref for Mapping {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        // Safety: ptr/len came from a successful PROT_READ mmap that
        // lives until Drop; the region is never remapped or unmapped
        // while borrowed.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
impl Drop for Mapping {
    fn drop(&mut self) {
        // Safety: exactly one munmap for the mmap that created us.
        unsafe {
            sys::munmap(self.ptr, self.len);
        }
    }
}

/// File contents as either a live memory map or an owned buffer.
pub enum FileBytes {
    /// A read-only `mmap(2)` of the whole file.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    Mapped(Mapping),
    /// The portable fallback: the file read into memory.
    Owned(Vec<u8>),
}

impl FileBytes {
    /// Whether these bytes are a live mapping rather than a copy.
    pub fn is_mapped(&self) -> bool {
        match self {
            #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
            FileBytes::Mapped(_) => true,
            FileBytes::Owned(_) => false,
        }
    }
}

impl Deref for FileBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
            FileBytes::Mapped(m) => m,
            FileBytes::Owned(v) => v,
        }
    }
}

/// Opens a file as [`FileBytes`]: mapped where supported, read otherwise.
pub fn map_file(path: &Path) -> std::io::Result<FileBytes> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        use std::os::unix::io::AsRawFd;
        if let Ok(file) = std::fs::File::open(path) {
            if let Ok(meta) = file.metadata() {
                let len = meta.len() as usize;
                // mmap rejects zero-length maps; tiny files gain nothing.
                if len > 0 {
                    // Safety: anonymous-address read-only private map of a
                    // file we hold open; checked for MAP_FAILED below. The
                    // fd may close after mmap returns — the map persists.
                    let ptr = unsafe {
                        sys::mmap(
                            std::ptr::null_mut(),
                            len,
                            sys::PROT_READ,
                            sys::MAP_PRIVATE,
                            file.as_raw_fd(),
                            0,
                        )
                    };
                    if !ptr.is_null() && ptr as isize != -1 {
                        return Ok(FileBytes::Mapped(Mapping { ptr, len }));
                    }
                }
            }
        }
        // Any failure above falls through to the portable read.
    }
    std::fs::read(path).map(FileBytes::Owned)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapped_bytes_match_read_bytes() {
        let dir = std::env::temp_dir().join("ute_mmap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.bin");
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &payload).unwrap();
        let mapped = map_file(&path).unwrap();
        assert_eq!(&*mapped, &payload[..]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_falls_back_to_owned() {
        let dir = std::env::temp_dir().join("ute_mmap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.bin");
        std::fs::write(&path, b"").unwrap();
        let bytes = map_file(&path).unwrap();
        assert!(bytes.is_empty());
        assert!(matches!(bytes, FileBytes::Owned(_)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(map_file(Path::new("/nonexistent/ute/file.raw")).is_err());
    }
}
