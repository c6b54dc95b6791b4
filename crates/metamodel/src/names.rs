//! Type names and name manipulation helpers.
//!
//! Types are referenced *by name* in type descriptions (the paper keeps
//! descriptions non-recursive: field and argument types appear as names
//! only, Section 5.2). A [`TypeName`] is a dotted full name such as
//! `Acme.Directory.Person`; the trailing segment is the *simple name* used
//! by the name-conformance aspect, and a `[]` suffix denotes an array type.

use std::fmt;
use std::sync::Arc;

/// A (possibly namespace-qualified) type name, e.g. `Acme.Person` or
/// `Int32[]`.
///
/// `TypeName` is an immutable string wrapper with helpers for the pieces
/// the conformance rules care about: the simple name, the namespace, and
/// array element types. The string is shared by reference count, so a
/// clone (one per delivered event's interest name) allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TypeName(Arc<str>);

impl TypeName {
    /// Creates a type name from its dotted full form.
    pub fn new(full: impl AsRef<str>) -> TypeName {
        TypeName(Arc::from(full.as_ref()))
    }

    /// The full dotted name, as given.
    pub fn full(&self) -> &str {
        &self.0
    }

    /// The simple (unqualified) name: everything after the last `.`.
    ///
    /// ```
    /// use pti_metamodel::TypeName;
    /// assert_eq!(TypeName::new("Acme.Directory.Person").simple(), "Person");
    /// assert_eq!(TypeName::new("Person").simple(), "Person");
    /// ```
    pub fn simple(&self) -> &str {
        match self.0.rfind('.') {
            Some(i) => &self.0[i + 1..],
            None => &self.0,
        }
    }

    /// The namespace portion (everything before the last `.`), if any.
    pub fn namespace(&self) -> Option<&str> {
        self.0.rfind('.').map(|i| &self.0[..i])
    }

    /// Whether this name denotes an array type (`T[]`).
    pub fn is_array(&self) -> bool {
        self.0.ends_with("[]")
    }

    /// For an array type `T[]`, the element type name `T`.
    pub fn element(&self) -> Option<TypeName> {
        self.0.strip_suffix("[]").map(|e| TypeName(Arc::from(e)))
    }

    /// The array type whose elements are `self` (i.e. `self` + `[]`).
    pub fn array_of(&self) -> TypeName {
        TypeName::new(format!("{}[]", self.0))
    }

    /// Case-insensitive equality of the *full* names — the basic form of
    /// the paper's name-conformance aspect (Levenshtein distance 0,
    /// case-insensitive).
    pub fn eq_ignore_case(&self, other: &TypeName) -> bool {
        self.0.eq_ignore_ascii_case(&other.0)
    }
}

impl fmt::Display for TypeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for TypeName {
    fn from(s: &str) -> Self {
        TypeName::new(s)
    }
}

impl From<String> for TypeName {
    fn from(s: String) -> Self {
        TypeName::new(s)
    }
}

impl AsRef<str> for TypeName {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// Splits a camelCase / PascalCase / snake_case identifier into lowercase
/// tokens.
///
/// Used by the token-based `NameMatcher` extension in `pti-conformance`
/// (DESIGN.md D1): the paper motivates matching `setName` against
/// `setPersonName`, which exact matching cannot do; token containment can.
///
/// ```
/// use pti_metamodel::split_ident_tokens;
/// assert_eq!(split_ident_tokens("setPersonName"), vec!["set", "person", "name"]);
/// assert_eq!(split_ident_tokens("HTTPServer"), vec!["http", "server"]);
/// assert_eq!(split_ident_tokens("snake_case_id"), vec!["snake", "case", "id"]);
/// ```
pub fn split_ident_tokens(ident: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    let chars: Vec<char> = ident.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c == '_' || c == '.' || c == '-' {
            if !cur.is_empty() {
                tokens.push(std::mem::take(&mut cur));
            }
            continue;
        }
        if c.is_uppercase() {
            let prev_lower = i > 0 && chars[i - 1].is_lowercase();
            let next_lower = i + 1 < chars.len() && chars[i + 1].is_lowercase();
            // Boundary at lower→Upper, and at the last upper of an
            // acronym run (HTTPServer -> http, server).
            if prev_lower || (next_lower && !cur.is_empty()) {
                tokens.push(std::mem::take(&mut cur));
            }
        }
        cur.extend(c.to_lowercase());
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_and_namespace() {
        let n = TypeName::new("A.B.C");
        assert_eq!(n.simple(), "C");
        assert_eq!(n.namespace(), Some("A.B"));
        let flat = TypeName::new("C");
        assert_eq!(flat.simple(), "C");
        assert_eq!(flat.namespace(), None);
    }

    #[test]
    fn array_names() {
        let n = TypeName::new("Int32[]");
        assert!(n.is_array());
        assert_eq!(n.element().unwrap().full(), "Int32");
        assert_eq!(TypeName::new("Int32").array_of().full(), "Int32[]");
        assert!(!TypeName::new("Int32").is_array());
        assert_eq!(TypeName::new("Int32").element(), None);
    }

    #[test]
    fn nested_array_names() {
        let n = TypeName::new("Int32[][]");
        assert!(n.is_array());
        assert_eq!(n.element().unwrap().full(), "Int32[]");
    }

    #[test]
    fn case_insensitive_equality() {
        assert!(TypeName::new("person").eq_ignore_case(&TypeName::new("PERSON")));
        assert!(!TypeName::new("person").eq_ignore_case(&TypeName::new("human")));
    }

    #[test]
    fn token_split_basic() {
        assert_eq!(split_ident_tokens("getName"), vec!["get", "name"]);
        assert_eq!(
            split_ident_tokens("getPersonName"),
            vec!["get", "person", "name"]
        );
    }

    #[test]
    fn token_split_acronyms_and_digits() {
        assert_eq!(
            split_ident_tokens("parseXMLDoc"),
            vec!["parse", "xml", "doc"]
        );
        assert_eq!(split_ident_tokens("v2Engine"), vec!["v2", "engine"]);
    }

    #[test]
    fn token_split_empty() {
        assert!(split_ident_tokens("").is_empty());
        assert!(split_ident_tokens("___").is_empty());
    }

    #[test]
    fn display_and_from() {
        let n: TypeName = "X.Y".into();
        assert_eq!(n.to_string(), "X.Y");
        let n2: TypeName = String::from("Z").into();
        assert_eq!(n2.as_ref(), "Z");
    }
}
