//! A tolerant HTML parser that builds the tree as it scans.
//!
//! Real marketplace HTML is messy; the paper's crawler had to survive it.
//! This parser implements browser-like error tolerance for the cases that
//! occur in our templates and their mutations: unclosed tags, stray closing
//! tags, attributes with or without quotes, void elements, comments, and
//! doctype declarations.
//!
//! There is one pass and no token list: each text run, comment and tag is
//! attached to the document the moment it is scanned, under the innermost
//! open element. The open-element stack holds [`NodeId`]s, and a close tag
//! pops back to the nearest open element whose tag matches it without
//! regard to ASCII case.

use crate::dom::{Document, Node, NodeId, VOID_ELEMENTS};
use crate::escape::unescape;

/// Parse HTML text into a [`Document`]. Never fails; invalid constructs are
/// skipped or auto-corrected like a browser would.
pub fn parse(input: &str) -> Document {
    let mut tree = TreeBuilder { doc: Document::new(), open: Vec::new() };
    let mut i = 0;
    // Text runs end at the next '<'; everything up to it is one text node.
    while let Some(lt) = input[i..].find('<').map(|j| i + j) {
        tree.text(&input[i..lt]);
        let rest = &input[lt..];
        i = if let Some(body) = rest.strip_prefix("<!--") {
            match body.find("-->") {
                Some(e) => {
                    tree.attach(Node::Comment(body[..e].to_string()));
                    lt + 4 + e + 3
                }
                None => {
                    // Unterminated comment swallows the rest.
                    tree.attach(Node::Comment(body.to_string()));
                    input.len()
                }
            }
        } else if rest.starts_with("<!") {
            // DOCTYPE or bogus declaration: skip to '>'.
            rest.find('>').map_or(input.len(), |j| lt + j + 1)
        } else {
            match rest.find('>') {
                Some(j) => {
                    tree.tag(&rest[1..j]);
                    lt + j + 1
                }
                None => {
                    // Dangling '<' at EOF: treat as text.
                    tree.text(rest);
                    input.len()
                }
            }
        };
    }
    tree.text(&input[i..]);
    tree.doc
}

/// The document under construction and its open elements, innermost last.
struct TreeBuilder {
    doc: Document,
    open: Vec<NodeId>,
}

impl TreeBuilder {
    fn attach(&mut self, node: Node) -> NodeId {
        self.doc.attach(self.open.last().copied(), node)
    }

    fn text(&mut self, raw: &str) {
        if !raw.is_empty() {
            self.attach(Node::Text(unescape(raw)));
        }
    }

    /// One `<...>` tag, given what lies between the brackets.
    fn tag(&mut self, inner: &str) {
        if let Some(name) = inner.strip_prefix('/') {
            // Pop to the matching open tag; if none is open, ignore the
            // stray close (browser behaviour). No open tag is empty, so
            // `</>` matches nothing.
            let name = name.trim();
            let doc = &self.doc;
            let matching = self.open.iter().rposition(|&id| match doc.node(id) {
                Node::Element { tag, .. } => tag.eq_ignore_ascii_case(name),
                _ => false,
            });
            if let Some(pos) = matching {
                self.open.truncate(pos);
            }
        } else if let Some((element, keeps_open)) = parse_open_tag(inner) {
            let id = self.attach(element);
            if keeps_open {
                self.open.push(id);
            }
        }
    }
}

/// The element an open tag makes (tag name ASCII-lowercased), and whether
/// it stays open for children (neither void nor self-closing); `None` when
/// the name does not start with a letter.
fn parse_open_tag(inner: &str) -> Option<(Node, bool)> {
    let inner = inner.trim();
    let self_closing = inner.ends_with('/');
    let inner = inner.strip_suffix('/').unwrap_or(inner).trim();
    let mut chars = inner.char_indices();
    let tag_end = chars
        .find(|&(_, c)| c.is_whitespace())
        .map(|(idx, _)| idx)
        .unwrap_or(inner.len());
    let tag = inner[..tag_end].to_ascii_lowercase();
    if tag.is_empty() || !tag.chars().next().is_some_and(|c| c.is_ascii_alphabetic()) {
        return None;
    }
    let keeps_open = !self_closing && !VOID_ELEMENTS.contains(&tag.as_str());
    let attrs = parse_attrs(&inner[tag_end..]);
    Some((Node::Element { tag, attrs, children: Vec::new() }, keeps_open))
}

fn parse_attrs(s: &str) -> Vec<(String, String)> {
    // Char-boundary-safe scanner: `i` always sits on a boundary, advanced
    // by each char's UTF-8 width (attribute names in the wild include
    // arbitrary Unicode).
    let mut attrs = Vec::new();
    let mut i = 0;
    let at = |i: usize| s[i..].chars().next();
    let skip_ws = |mut i: usize| {
        while let Some(c) = s[i..].chars().next() {
            if !c.is_whitespace() {
                break;
            }
            i += c.len_utf8();
        }
        i
    };
    while i < s.len() {
        i = skip_ws(i);
        if i >= s.len() {
            break;
        }
        let name_start = i;
        while let Some(c) = at(i) {
            if c.is_whitespace() || c == '=' {
                break;
            }
            i += c.len_utf8();
        }
        let name = s[name_start..i].to_lowercase();
        if name.is_empty() {
            i += at(i).map(char::len_utf8).unwrap_or(1);
            continue;
        }
        i = skip_ws(i);
        if at(i) == Some('=') {
            i += 1;
            i = skip_ws(i);
            match at(i) {
                Some(quote @ ('"' | '\'')) => {
                    i += 1;
                    let val_start = i;
                    while let Some(c) = at(i) {
                        if c == quote {
                            break;
                        }
                        i += c.len_utf8();
                    }
                    attrs.push((name, unescape(&s[val_start..i])));
                    i += at(i).map(char::len_utf8).unwrap_or(0); // past closing quote
                }
                _ => {
                    let val_start = i;
                    while let Some(c) = at(i) {
                        if c.is_whitespace() {
                            break;
                        }
                        i += c.len_utf8();
                    }
                    attrs.push((name, unescape(&s[val_start..i])));
                }
            }
        } else {
            // Boolean attribute.
            attrs.push((name, String::new()));
        }
    }
    attrs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::Selector;

    #[test]
    fn parses_simple_page() {
        let doc = parse("<html><body><h1>Accounts</h1><p>38,253 for sale</p></body></html>");
        let h1 = doc.select_first(&Selector::parse("h1").unwrap()).unwrap();
        assert_eq!(h1.text(), "Accounts");
        let p = doc.select_first(&Selector::parse("p").unwrap()).unwrap();
        assert_eq!(p.text(), "38,253 for sale");
    }

    #[test]
    fn attributes_quoted_unquoted_boolean() {
        let doc = parse(r#"<input type="text" name=q disabled value='x y'>"#);
        let el = doc.element(doc.roots()[0]);
        assert_eq!(el.attr("type"), Some("text"));
        assert_eq!(el.attr("name"), Some("q"));
        assert_eq!(el.attr("disabled"), Some(""));
        assert_eq!(el.attr("value"), Some("x y"));
    }

    #[test]
    fn unclosed_tags_are_recovered() {
        let doc = parse("<div><p>first<p>second</div><span>after</span>");
        // Both <p> elements exist; the unclosed first <p> swallows "first".
        let ps = doc.select(&Selector::parse("p").unwrap());
        assert_eq!(ps.len(), 2);
        let span = doc.select_first(&Selector::parse("span").unwrap()).unwrap();
        assert_eq!(span.text(), "after");
    }

    #[test]
    fn stray_close_ignored() {
        let doc = parse("</div><p>ok</p>");
        assert_eq!(doc.select(&Selector::parse("p").unwrap()).len(), 1);
    }

    #[test]
    fn comments_and_doctype() {
        let doc = parse("<!DOCTYPE html><!-- header --><div>x</div>");
        assert_eq!(doc.select(&Selector::parse("div").unwrap()).len(), 1);
        let has_comment = (0..doc.len()).any(|i| matches!(doc.node(i), Node::Comment(c) if c.contains("header")));
        assert!(has_comment);
    }

    #[test]
    fn entities_decoded_in_text_and_attrs() {
        let doc = parse(r#"<a href="/q?a=1&amp;b=2">R&amp;B &lt;3</a>"#);
        let a = doc.element(doc.roots()[0]);
        assert_eq!(a.attr("href"), Some("/q?a=1&b=2"));
        assert_eq!(a.text(), "R&B <3");
    }

    #[test]
    fn void_elements_do_not_nest() {
        let doc = parse("<div><br><img src=x.png><span>in div</span></div>");
        let div = doc.element(doc.roots()[0]);
        // span must be a child of div, not of img.
        let span = div.select_first(&Selector::parse("span").unwrap()).unwrap();
        assert_eq!(span.text(), "in div");
        let img = div.select_first(&Selector::parse("img").unwrap()).unwrap();
        assert_eq!(img.children().len(), 0);
    }

    #[test]
    fn self_closing_syntax() {
        let doc = parse("<div><widget/><p>after</p></div>");
        let div = doc.element(doc.roots()[0]);
        assert_eq!(div.children().len(), 2);
    }

    #[test]
    fn dangling_angle_is_text() {
        let doc = parse("price < 100");
        let texts: Vec<String> = (0..doc.len())
            .filter_map(|i| match doc.node(i) {
                Node::Text(t) => Some(t.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(texts.join(""), "price < 100");
    }

    #[test]
    fn unterminated_comment_swallows_rest() {
        let doc = parse("<div>a</div><!-- never closed <p>ghost</p>");
        assert_eq!(doc.select(&Selector::parse("p").unwrap()).len(), 0);
    }

    #[test]
    fn roundtrip_render_parse_preserves_structure() {
        let html = r#"<div class="offer" data-id="7"><a href="/offer/7">IG <b>26,998</b> followers</a><br><span>$298</span></div>"#;
        let doc = parse(html);
        let rendered = doc.render();
        let doc2 = parse(&rendered);
        assert_eq!(doc.render(), doc2.render());
        let a = doc2.select_first(&Selector::parse("a").unwrap()).unwrap();
        assert_eq!(a.text(), "IG 26,998 followers");
    }
}
