//! Property tests: the JSON string scanner agrees with a reference decoder
//! that reads one character at a time, value for value and error offset
//! for error offset, and long strings parse in linear time.

use proptest::prelude::*;
use psdp_serve::json::{parse, JsonError, JsonValue};

/// Reference decoder for one string literal starting at byte `start` of
/// `text`: one `char` per step, the same escapes and the same errors (at
/// the same offsets) as a character-at-a-time JSON reader. Returns the
/// decoded string and the offset just past the closing quote.
fn reference_string(text: &str, start: usize) -> Result<(String, usize), JsonError> {
    let err = |at: usize, msg: &str| JsonError { at, msg: msg.to_string() };
    let bytes = text.as_bytes();
    if bytes.get(start) != Some(&b'"') {
        return Err(err(start, "expected `\"`"));
    }
    let mut pos = start + 1;
    let mut out = String::new();
    let hex4 = |pos: &mut usize| -> Result<u32, JsonError> {
        let chunk = text.get(*pos..*pos + 4).ok_or_else(|| {
            if *pos + 4 > bytes.len() {
                err(*pos, "truncated \\u escape")
            } else {
                err(*pos, "invalid utf-8 in \\u escape")
            }
        })?;
        let v = u32::from_str_radix(chunk, 16).map_err(|_| err(*pos, "invalid \\u escape"))?;
        *pos += 4;
        Ok(v)
    };
    loop {
        let Some(ch) = text.get(pos..).and_then(|rest| rest.chars().next()) else {
            return Err(err(pos, "unterminated string"));
        };
        match ch {
            '"' => return Ok((out, pos + 1)),
            '\\' => {
                pos += 1;
                let simple = match bytes.get(pos) {
                    Some(b'"') => Some('"'),
                    Some(b'\\') => Some('\\'),
                    Some(b'/') => Some('/'),
                    Some(b'b') => Some('\u{8}'),
                    Some(b'f') => Some('\u{c}'),
                    Some(b'n') => Some('\n'),
                    Some(b'r') => Some('\r'),
                    Some(b't') => Some('\t'),
                    Some(b'u') => None,
                    _ => return Err(err(pos, "invalid escape")),
                };
                if let Some(c) = simple {
                    out.push(c);
                    pos += 1;
                    continue;
                }
                pos += 1;
                let hi = hex4(&mut pos)?;
                let c = if (0xD800..0xDC00).contains(&hi) {
                    if bytes.get(pos) != Some(&b'\\') {
                        return Err(err(pos, "unpaired surrogate"));
                    }
                    pos += 1;
                    if bytes.get(pos) != Some(&b'u') {
                        return Err(err(pos, "unpaired surrogate"));
                    }
                    pos += 1;
                    let lo = hex4(&mut pos)?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(err(pos, "invalid low surrogate"));
                    }
                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(cp).ok_or_else(|| err(pos, "invalid code point"))?
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(err(pos, "unpaired low surrogate"));
                } else {
                    char::from_u32(hi).ok_or_else(|| err(pos, "invalid code point"))?
                };
                out.push(c);
            }
            c if (c as u32) < 0x20 => return Err(err(pos, "raw control character in string")),
            c => {
                out.push(c);
                pos += c.len_utf8();
            }
        }
    }
}

/// String-body fragments: ASCII and multi-byte text, every escape, `\u`
/// escapes (BMP, surrogate pairs, lone and reversed surrogates, bad hex,
/// truncation), raw control bytes, and an invalid escape.
const FRAGMENTS: &[&str] = &[
    "a",
    "xyz 019",
    " ",
    "é",
    "ψ",
    "中文",
    "😀",
    "\u{7f}",
    "\u{80}",
    "\u{ffff}",
    "\\\"",
    "\\\\",
    "\\/",
    "\\b",
    "\\f",
    "\\n",
    "\\r",
    "\\t",
    "\\u0041",
    "\\u00e9",
    "\\u4e2D",
    "\\u0000",
    "\\ud83d\\ude00",
    "\\uD800\\uDFFF",
    "\\ud800",
    "\\udc00",
    "\\ud800\\u0041",
    "\\ud800x",
    "\\u12g4",
    "\\u12",
    "\\u1é23",
    "\\x",
    "\u{1}",
    "\n",
    "\t",
    "\u{1f}",
];

/// How a generated literal ends.
#[derive(Debug, Clone, Copy)]
enum End {
    Quote,
    /// Cut off: no closing quote.
    Open,
    /// A lone backslash where the closing quote should be.
    Backslash,
}

/// A string literal as fragment indices plus its ending. No fragment holds
/// an unescaped quote, so a closed literal ends exactly at its last byte.
fn literal() -> impl Strategy<Value = (Vec<usize>, End)> {
    (proptest::collection::vec(0..FRAGMENTS.len(), 0..24), 0..8usize).prop_map(|(frags, t)| {
        let end = match t {
            0 => End::Open,
            1 => End::Backslash,
            _ => End::Quote,
        };
        (frags, end)
    })
}

fn build((frags, end): &(Vec<usize>, End)) -> String {
    let mut s = String::from("\"");
    for &f in frags {
        s.push_str(FRAGMENTS[f]);
    }
    match end {
        End::Quote => s.push('"'),
        End::Open => {}
        End::Backslash => s.push('\\'),
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A bare string literal decodes to the reference's value, or fails
    /// at the reference's offset with its message.
    #[test]
    fn bare_literals_match_the_reference(lit in literal()) {
        let text = build(&lit);
        let want = reference_string(&text, 0).map(|(s, end)| {
            assert_eq!(end, text.len(), "a closing quote ends the input");
            JsonValue::Str(s)
        });
        prop_assert_eq!(parse(&text), want, "input {:?}", text);
    }

    /// Inside an array and an object the string token starts mid-line, so
    /// every error offset is shifted by the prefix and values nest.
    #[test]
    fn embedded_literals_match_the_reference(lit in literal()) {
        let body = build(&lit);
        let arr = format!("[{body}]");
        let want = reference_string(&arr, 1).map(|(s, end)| {
            assert_eq!(end, arr.len() - 1);
            JsonValue::Arr(vec![JsonValue::Str(s)])
        });
        prop_assert_eq!(parse(&arr), want, "input {:?}", arr);

        let obj = format!("{{\"k\u{e9}\":{body}}}");
        let at = "{\"k\u{e9}\":".len();
        let want = reference_string(&obj, at).map(|(s, _)| {
            JsonValue::Obj(vec![("k\u{e9}".to_string(), JsonValue::Str(s))])
        });
        prop_assert_eq!(parse(&obj), want, "input {:?}", obj);
    }

    /// A literal used as an object key decodes the same way.
    #[test]
    fn keys_match_the_reference(lit in literal()) {
        let key = build(&lit);
        let obj = format!("{{{key}:1}}");
        match reference_string(&obj, 1) {
            Ok((k, _)) => prop_assert_eq!(
                parse(&obj),
                Ok(JsonValue::Obj(vec![(k, JsonValue::Num(1.0))])),
                "input {:?}",
                obj
            ),
            // An unterminated key swallows the rest of the line, so the
            // reference error is the parser's error.
            Err(e) => prop_assert_eq!(parse(&obj), Err(e), "input {:?}", obj),
        }
    }
}

/// A 256 KiB string value parses in linear time. A scanner that
/// re-validates the rest of the line per character is quadratic here and
/// takes seconds.
#[test]
fn long_string_values_parse_in_linear_time() {
    let unit = "abcé中😀\\n\\u00e9";
    let mut body = String::new();
    while body.len() < 256 * 1024 {
        body.push_str(unit);
    }
    let line = format!("{{\"id\":\"r1\",\"instance\":\"{body}\"}}");
    let t = std::time::Instant::now();
    let v = parse(&line).unwrap();
    let took = t.elapsed();
    let want = reference_string(&line, "{\"id\":\"r1\",\"instance\":".len()).unwrap().0;
    assert_eq!(v.get("instance").and_then(JsonValue::as_str), Some(want.as_str()));
    assert!(took.as_millis() < 200, "256 KiB string took {took:?}");
}
