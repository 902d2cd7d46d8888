//! HTML entity escaping and unescaping.

/// Escape text content: `&`, `<`, `>`.
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(c),
        }
    }
    out
}

/// Escape an attribute value (double-quoted context): text escapes plus `"`.
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// Unescape the named entities we emit plus `&#NN;` / `&#xHH;` numeric
/// references. Unknown entities pass through literally (browser behaviour).
/// Runs without `&` are copied in one step.
pub fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        match decode_entity(rest) {
            Some((c, len)) => {
                out.push(c);
                rest = &rest[len..];
            }
            None => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
    out
}

/// Longest entity name (between `&` and `;`) that decodes; longer ones
/// are junk, not entities.
const MAX_ENTITY_LEN: usize = 24;

/// Decode the entity `s` starts with (`s` begins with `&`): the char and
/// the entity's length in bytes, `;` included.
fn decode_entity(s: &str) -> Option<(char, usize)> {
    // The first `;` must close a name of at most `MAX_ENTITY_LEN` bytes.
    // It is ASCII, so its byte position is a char boundary.
    let semi = s.bytes().skip(1).take(MAX_ENTITY_LEN + 1).position(|b| b == b';')? + 1;
    let entity = &s[1..semi];
    let c = match entity {
        "amp" => '&',
        "lt" => '<',
        "gt" => '>',
        "quot" => '"',
        "apos" => '\'',
        "nbsp" => '\u{a0}',
        _ => {
            if let Some(hex) = entity.strip_prefix("#x").or(entity.strip_prefix("#X")) {
                u32::from_str_radix(hex, 16).ok().and_then(char::from_u32)?
            } else {
                entity.strip_prefix('#')?.parse::<u32>().ok().and_then(char::from_u32)?
            }
        }
    };
    Some((c, semi + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_escaping_roundtrip() {
        let raw = "price < $50 & followers > 10k";
        assert_eq!(unescape(&escape_text(raw)), raw);
        assert_eq!(escape_text(raw), "price &lt; $50 &amp; followers &gt; 10k");
    }

    #[test]
    fn attr_escaping_handles_quotes() {
        assert_eq!(escape_attr(r#"say "hi""#), "say &quot;hi&quot;");
        assert_eq!(unescape("say &quot;hi&quot;"), r#"say "hi""#);
    }

    #[test]
    fn numeric_entities() {
        assert_eq!(unescape("&#36;64&#x41;"), "$64A");
        assert_eq!(unescape("&#x1F600;"), "😀");
    }

    #[test]
    fn unknown_entities_pass_through() {
        assert_eq!(unescape("&bogus; &"), "&bogus; &");
        assert_eq!(unescape("a&b"), "a&b");
    }

    #[test]
    fn non_ascii_untouched() {
        let s = "prix élevé — 你好";
        assert_eq!(unescape(&escape_text(s)), s);
    }
}
