//! [`SharedStr`]: an immutable string whose clones share one buffer.
//!
//! Operand names and call labels are rendered once per text, in its
//! template, and then appear in every algorithm instantiated from it; a
//! plan's policy and expression names are fixed per planner. Sharing them
//! makes a clone a reference-count increment instead of an allocation and a
//! copy.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// An immutable, reference-counted string. It reads like a `&str` (it
/// dereferences to one), compares with `&str` and `String`, and
/// prints exactly like a `String`, `Debug` included.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SharedStr(Arc<str>);

impl SharedStr {
    /// The string.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Default for SharedStr {
    /// The empty string, one per process.
    fn default() -> Self {
        static EMPTY: OnceLock<SharedStr> = OnceLock::new();
        EMPTY.get_or_init(|| SharedStr(Arc::from(""))).clone()
    }
}

impl Deref for SharedStr {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for SharedStr {
    fn from(text: &str) -> Self {
        SharedStr(Arc::from(text))
    }
}

impl From<String> for SharedStr {
    fn from(text: String) -> Self {
        SharedStr(Arc::from(text))
    }
}

impl fmt::Debug for SharedStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl fmt::Display for SharedStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&*self.0, f)
    }
}

impl PartialEq<&str> for SharedStr {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl PartialEq<String> for SharedStr {
    fn eq(&self, other: &String) -> bool {
        &*self.0 == other.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_shared_string_reads_compares_and_prints_like_a_string() {
        let owned = String::from("M1 := A*B");
        let shared = SharedStr::from(owned.as_str());
        assert_eq!(shared, "M1 := A*B");
        assert_eq!(shared, owned);
        assert_eq!(&shared[..2], "M1");
        assert_eq!(format!("{shared:?}"), format!("{owned:?}"));
        assert_eq!(format!("{shared:#?}"), format!("{owned:#?}"));
        assert_eq!(shared.to_string(), owned);
        let copy = shared.clone();
        assert!(std::ptr::eq(copy.as_str(), shared.as_str()), "clones share");
        assert_eq!(SharedStr::default(), "");
    }
}
