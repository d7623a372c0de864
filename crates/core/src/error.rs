//! The common error type for all UTE crates.

use std::fmt;
use std::io;

/// Convenient result alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, UteError>;

/// Errors produced anywhere in the trace pipeline.
#[derive(Debug)]
pub enum UteError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// A file did not conform to its format ("what" says which structure,
    /// at which byte offset when known).
    Corrupt {
        /// Which structure failed to parse.
        what: String,
        /// Byte offset of the failure, if known.
        offset: Option<u64>,
    },
    /// The profile version recorded in an interval file does not match the
    /// profile being used to read it (§2.3: "Utilities and programs that
    /// read interval files check that they are using the correct profile").
    VersionMismatch {
        /// Version stored in the profile file.
        profile: u32,
        /// Version stored in the interval file header.
        file: u32,
    },
    /// A field, record, marker, or thread lookup failed.
    NotFound(String),
    /// A statistics-language program failed to parse.
    Parse {
        /// Human-readable description of the syntax error.
        msg: String,
        /// Byte position in the program text.
        pos: usize,
    },
    /// A request was structurally valid but semantically impossible
    /// (e.g. more than 512 threads registered on one node).
    Invalid(String),
    /// An error tied to a specific file on disk. Wraps the underlying
    /// failure so read/write paths can report *which* file was being
    /// touched — an `ENOSPC` or short read without a path is useless in
    /// a pipeline that handles hundreds of per-node files.
    File {
        /// The offending file's path.
        path: String,
        /// The underlying failure.
        source: Box<UteError>,
    },
    /// An error tied to one of the byte buffers a call was handed, by
    /// position. The callee has bytes, not paths, so the text is the
    /// source's alone; a caller that knows where buffer `index` came
    /// from names it with [`UteError::name_input`].
    Input {
        /// Position of the offending buffer in the call's input slice.
        index: usize,
        /// The underlying failure.
        source: Box<UteError>,
    },
}

impl UteError {
    /// Shorthand for a corrupt-format error with no offset.
    pub fn corrupt(what: impl Into<String>) -> UteError {
        UteError::Corrupt {
            what: what.into(),
            offset: None,
        }
    }

    /// Shorthand for a corrupt-format error at a known byte offset.
    pub fn corrupt_at(what: impl Into<String>, offset: u64) -> UteError {
        UteError::Corrupt {
            what: what.into(),
            offset: Some(offset),
        }
    }

    /// Attaches a file path to this error. Idempotent: an error already
    /// carrying a path keeps the innermost (most specific) one.
    pub fn in_file(self, path: impl AsRef<std::path::Path>) -> UteError {
        match self {
            e @ UteError::File { .. } => e,
            e => UteError::File {
                path: path.as_ref().display().to_string(),
                source: Box::new(e),
            },
        }
    }

    /// Turns an [`UteError::Input`] into the same failure
    /// [in the file](UteError::in_file) `paths[index]`; any other error
    /// (or an index `paths` does not cover) passes through.
    pub fn name_input<P: AsRef<std::path::Path>>(self, paths: &[P]) -> UteError {
        match self {
            UteError::Input { index, source } if index < paths.len() => {
                source.in_file(&paths[index])
            }
            e => e,
        }
    }
}

/// Extension trait for attaching file-path context to any `Result`.
pub trait PathContext<T> {
    /// Wraps the error side with the offending file's path.
    fn in_file(self, path: impl AsRef<std::path::Path>) -> Result<T>;
}

impl<T, E: Into<UteError>> PathContext<T> for std::result::Result<T, E> {
    fn in_file(self, path: impl AsRef<std::path::Path>) -> Result<T> {
        self.map_err(|e| e.into().in_file(path))
    }
}

impl fmt::Display for UteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UteError::Io(e) => write!(f, "i/o error: {e}"),
            UteError::Corrupt { what, offset } => match offset {
                Some(o) => write!(f, "corrupt {what} at byte {o}"),
                None => write!(f, "corrupt {what}"),
            },
            UteError::VersionMismatch { profile, file } => write!(
                f,
                "profile version mismatch: profile is v{profile}, interval file was written with v{file}"
            ),
            UteError::NotFound(what) => write!(f, "not found: {what}"),
            UteError::Parse { msg, pos } => write!(f, "parse error at {pos}: {msg}"),
            UteError::Invalid(msg) => write!(f, "invalid request: {msg}"),
            UteError::File { path, source } => write!(f, "{path}: {source}"),
            UteError::Input { source, .. } => source.fmt(f),
        }
    }
}

impl std::error::Error for UteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            UteError::Io(e) => Some(e),
            UteError::File { source, .. } | UteError::Input { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for UteError {
    fn from(e: io::Error) -> Self {
        UteError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = UteError::corrupt_at("frame directory", 128);
        assert_eq!(e.to_string(), "corrupt frame directory at byte 128");
        let e = UteError::corrupt("hookword");
        assert_eq!(e.to_string(), "corrupt hookword");
        let e = UteError::VersionMismatch {
            profile: 2,
            file: 1,
        };
        assert!(e.to_string().contains("v2"));
        assert!(e.to_string().contains("v1"));
        let e = UteError::Parse {
            msg: "expected ')'".into(),
            pos: 7,
        };
        assert!(e.to_string().contains("at 7"));
    }

    #[test]
    fn file_context_names_the_path_and_stays_innermost() {
        let e = UteError::corrupt("hookword").in_file("/data/trace.3.raw");
        assert_eq!(e.to_string(), "/data/trace.3.raw: corrupt hookword");
        // Re-wrapping keeps the innermost path.
        let e = e.in_file("/data/other");
        assert_eq!(e.to_string(), "/data/trace.3.raw: corrupt hookword");
        // The trait form works straight off an io::Result.
        let r: std::result::Result<(), io::Error> =
            Err(io::Error::new(io::ErrorKind::UnexpectedEof, "eof"));
        let e = r.in_file("/data/x.ivl").unwrap_err();
        assert!(e.to_string().starts_with("/data/x.ivl: "), "{e}");
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn an_input_error_reads_as_its_source_until_it_is_named() {
        let e = UteError::Input {
            index: 1,
            source: Box::new(UteError::corrupt_at("bytes", 7)),
        };
        assert_eq!(e.to_string(), "corrupt bytes at byte 7");
        let named = e.name_input(&["d/trace.0.ivl", "d/trace.2.ivl"]);
        assert_eq!(named.to_string(), "d/trace.2.ivl: corrupt bytes at byte 7");
        // Anything else passes through.
        let e = UteError::corrupt("x").name_input(&["a"]);
        assert_eq!(e.to_string(), "corrupt x");
    }

    #[test]
    fn io_conversion_preserves_source() {
        let ioe = io::Error::new(io::ErrorKind::UnexpectedEof, "eof");
        let e: UteError = ioe.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
