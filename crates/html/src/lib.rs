#![warn(missing_docs)]

//! # acctrade-html
//!
//! A small HTML engine: a DOM tree, a renderer, a tolerant parser, and a
//! CSS-ish selector engine.
//!
//! The reproduced paper crawled marketplace listing pages with
//! Selenium-driven Chrome. Our simulated marketplaces render genuine HTML
//! and the crawler genuinely parses it — so extraction bugs, malformed
//! markup, and selector drift are all real phenomena in this reproduction,
//! not stubs. The subset implemented covers everything the marketplace
//! templates emit: elements, attributes, text, comments, void elements, and
//! entity escaping.
//!
//! The crawler parses every page it fetches, so a page costs time in
//! proportion to its own size:
//!
//! * **Single-pass parser.** [`parse`] attaches each text run, comment and
//!   element the moment it scans it; there is no token list. Its stack of
//!   open elements holds [`NodeId`]s, and close tags match them without
//!   regard to ASCII case, with no lowercased copy.
//! * **Parent links.** A node's parent is recorded when it is attached, so
//!   [`Document::parent_of`] is O(1), and a descendant selector such as
//!   `.seller a` climbs only the element's own ancestors. Nodes are only
//!   ever attached as the last child of an open element, so the arena is
//!   in document order, and whole-document walks are a scan of it.
//! * **First-match selection.** [`Document::select_first`] and
//!   [`ElementRef::select_first`] stop at their first match and collect
//!   nothing. The crawler parses each dialect's selector list once per
//!   process and takes one first match per field.
//!
//! ```
//! use acctrade_html::{parse, Selector};
//!
//! let doc = parse(r#"<div class="offer"><a href="/offer/7">IG account</a></div>"#);
//! let sel = Selector::parse("div.offer a").unwrap();
//! let links = doc.select(&sel);
//! assert_eq!(links[0].attr("href"), Some("/offer/7"));
//! assert_eq!(links[0].text(), "IG account");
//! ```

pub mod dom;
pub mod escape;
pub mod parser;
pub mod select;

pub use dom::{Document, ElementRef, Node, NodeId};
pub use escape::{escape_attr, escape_text, unescape};
pub use parser::parse;
pub use select::Selector;
