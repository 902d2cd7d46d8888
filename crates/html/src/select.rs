//! A CSS-ish selector engine.
//!
//! Supported grammar (the subset marketplace extraction adapters use):
//!
//! ```text
//! selector      = compound (WS compound)*          ; descendant combinator
//! compound      = [tag] ('#'id | '.'class | '[attr]' | '[attr=value]')*
//! ```
//!
//! `*` matches any tag. Attribute values may be quoted or bare.

use crate::dom::{Document, Node, NodeId};

/// One simple (compound) selector: tag/id/class/attr constraints that must
/// all hold on a single element.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Compound {
    tag: Option<String>,
    id: Option<String>,
    classes: Vec<String>,
    attrs: Vec<(String, Option<String>)>,
}

impl Compound {
    fn matches(&self, doc: &Document, id: NodeId) -> bool {
        let Node::Element { tag, attrs, .. } = doc.node(id) else {
            return false;
        };
        if let Some(t) = &self.tag {
            if t != tag {
                return false;
            }
        }
        let get = |name: &str| {
            attrs
                .iter()
                .find(|(k, _)| k.eq_ignore_ascii_case(name))
                .map(|(_, v)| v.as_str())
        };
        if let Some(want_id) = &self.id {
            if get("id") != Some(want_id.as_str()) {
                return false;
            }
        }
        if !self.classes.is_empty() {
            let have = get("class").unwrap_or_default();
            if !self.classes.iter().all(|c| have.split_whitespace().any(|h| h == c)) {
                return false;
            }
        }
        for (name, want) in &self.attrs {
            match (get(name), want) {
                (None, _) => return false,
                (Some(_), None) => {}
                (Some(v), Some(w)) => {
                    if v != w {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// A parsed selector: a chain of compounds joined by descendant combinators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selector {
    chain: Vec<Compound>,
}

/// Error produced by [`Selector::parse`] on malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectorParseError(pub String);

impl std::fmt::Display for SelectorParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad selector: {}", self.0)
    }
}

impl std::error::Error for SelectorParseError {}

impl Selector {
    /// Parse a selector string.
    pub fn parse(s: &str) -> Result<Selector, SelectorParseError> {
        let err = || SelectorParseError(s.to_string());
        let mut chain = Vec::new();
        for part in s.split_whitespace() {
            chain.push(parse_compound(part).ok_or_else(err)?);
        }
        if chain.is_empty() {
            return Err(err());
        }
        Ok(Selector { chain })
    }

    /// Does the element `id` match this selector (with its ancestors
    /// satisfying the leading compounds)?
    pub fn matches(&self, doc: &Document, id: NodeId) -> bool {
        let (last, prefix) = self.chain.split_last().expect("non-empty chain"); // conformance: allow(panic-policy) — the selector parser never yields an empty chain
        if !last.matches(doc, id) {
            return false;
        }
        // Walk ancestors, greedily consuming the prefix right-to-left.
        let mut needed = prefix.iter().rev().peekable();
        let mut current = id;
        while let Some(next_needed) = needed.peek() {
            let Some(parent) = doc.parent_of(current) else {
                return false;
            };
            if next_needed.matches(doc, parent) {
                needed.next();
            }
            current = parent;
        }
        true
    }
}

fn parse_compound(s: &str) -> Option<Compound> {
    let mut tag = None;
    let mut id = None;
    let mut classes = Vec::new();
    let mut attrs = Vec::new();

    let bytes = s.as_bytes();
    let mut i = 0;

    // Leading tag or '*'.
    if i < bytes.len() && bytes[i] != b'#' && bytes[i] != b'.' && bytes[i] != b'[' {
        let start = i;
        while i < bytes.len() && bytes[i] != b'#' && bytes[i] != b'.' && bytes[i] != b'[' {
            i += 1;
        }
        let t = &s[start..i];
        if t != "*" {
            if !t.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
                return None;
            }
            tag = Some(t.to_ascii_lowercase());
        }
    }

    while i < bytes.len() {
        match bytes[i] {
            b'#' => {
                i += 1;
                let start = i;
                while i < bytes.len() && bytes[i] != b'#' && bytes[i] != b'.' && bytes[i] != b'[' {
                    i += 1;
                }
                if start == i {
                    return None;
                }
                id = Some(s[start..i].to_string());
            }
            b'.' => {
                i += 1;
                let start = i;
                while i < bytes.len() && bytes[i] != b'#' && bytes[i] != b'.' && bytes[i] != b'[' {
                    i += 1;
                }
                if start == i {
                    return None;
                }
                classes.push(s[start..i].to_string());
            }
            b'[' => {
                let close = s[i..].find(']')? + i;
                let inner = &s[i + 1..close];
                if inner.is_empty() {
                    return None;
                }
                match inner.split_once('=') {
                    Some((k, v)) => {
                        let v = v.trim_matches(|c| c == '"' || c == '\'');
                        attrs.push((k.to_ascii_lowercase(), Some(v.to_string())));
                    }
                    None => attrs.push((inner.to_ascii_lowercase(), None)),
                }
                i = close + 1;
            }
            _ => return None,
        }
    }

    Some(Compound { tag, id, classes, attrs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const PAGE: &str = r#"
      <div id="listings" class="page">
        <div class="offer featured" data-platform="instagram">
          <a href="/offer/1" class="title">IG fashion</a>
          <span class="price">$298</span>
        </div>
        <div class="offer" data-platform="tiktok">
          <a href="/offer/2" class="title">TT memes</a>
          <span class="price">$755</span>
        </div>
        <aside><span class="price">$0 (ad)</span></aside>
      </div>"#;

    #[test]
    fn tag_selector() {
        let doc = parse(PAGE);
        assert_eq!(doc.select(&Selector::parse("a").unwrap()).len(), 2);
    }

    #[test]
    fn class_selector() {
        let doc = parse(PAGE);
        assert_eq!(doc.select(&Selector::parse(".offer").unwrap()).len(), 2);
        assert_eq!(doc.select(&Selector::parse(".offer.featured").unwrap()).len(), 1);
    }

    #[test]
    fn id_selector() {
        let doc = parse(PAGE);
        assert_eq!(doc.select(&Selector::parse("#listings").unwrap()).len(), 1);
        assert_eq!(doc.select(&Selector::parse("div#listings").unwrap()).len(), 1);
    }

    #[test]
    fn attr_selectors() {
        let doc = parse(PAGE);
        assert_eq!(doc.select(&Selector::parse("[data-platform]").unwrap()).len(), 2);
        let tt = doc.select(&Selector::parse(r#"[data-platform=tiktok]"#).unwrap());
        assert_eq!(tt.len(), 1);
        assert!(tt[0].has_class("offer"));
        let quoted = doc.select(&Selector::parse(r#"div[data-platform="instagram"]"#).unwrap());
        assert_eq!(quoted.len(), 1);
    }

    #[test]
    fn descendant_combinator() {
        let doc = parse(PAGE);
        // Prices inside offers only — excludes the aside ad.
        assert_eq!(doc.select(&Selector::parse(".offer .price").unwrap()).len(), 2);
        assert_eq!(doc.select(&Selector::parse("#listings aside span").unwrap()).len(), 1);
        assert_eq!(doc.select(&Selector::parse(".offer aside").unwrap()).len(), 0);
    }

    #[test]
    fn star_matches_any_tag() {
        let doc = parse(PAGE);
        let all = doc.select(&Selector::parse("*").unwrap());
        assert!(all.len() >= 8);
        assert_eq!(doc.select(&Selector::parse("*.price").unwrap()).len(), 3);
    }

    #[test]
    fn element_scoped_select() {
        let doc = parse(PAGE);
        let offers = doc.select(&Selector::parse(".offer").unwrap());
        let price = offers[0].select_first(&Selector::parse(".price").unwrap()).unwrap();
        assert_eq!(price.text(), "$298");
    }

    #[test]
    fn malformed_selectors_rejected() {
        for bad in ["", ".", "#", "div[", "a..b", "d!v"] {
            assert!(Selector::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn deep_descendant_requires_all_ancestors() {
        let doc = parse("<div class=a><div class=b><p>x</p></div></div><div class=b><p>y</p></div>");
        let sel = Selector::parse(".a .b p").unwrap();
        let hits = doc.select(&sel);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].text(), "x");
    }
}
