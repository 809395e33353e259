//! The workspace's one JSON writer. Every report, diagnostic and BENCH
//! record is spelled here, so each format decision is made once:
//!
//! - integers are written as-is; finite floats with four decimals
//!   (`{:.4}`), non-finite floats as `null`;
//! - strings escape `"`, `\`, `\n`, `\r`, `\t`, and every other char
//!   below 0x20 as `\u00XX`;
//! - `None` is `null`;
//! - objects and arrays place their own commas; there is no whitespace.
//!
//! [`Json`] streams through `fmt::Write` into one `String` — no
//! allocation per field — so byte-pinned encodings such as
//! `ClusterReport::to_json` stay byte-identical as long as callers emit
//! the same fields in the same order.

use std::fmt::Write;

/// Streaming JSON encoder over one `String`, handed out by [`object`].
/// Containers take a closure that writes their members; [`Json::field`]
/// and [`Json::value`] write the leaves.
pub struct Json {
    out: String,
    /// True right after `{`, `[` or a key: the next item takes no comma.
    fresh: bool,
}

impl Json {
    fn sep(&mut self) {
        if !self.fresh {
            self.out.push(',');
        }
        self.fresh = false;
    }

    fn nest(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.sep();
        self.out.push(open);
        self.fresh = true;
        body(self);
        self.out.push(close);
        self.fresh = false;
        self
    }

    /// Write an object whose members `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.nest('{', '}', body)
    }

    /// Write an array whose elements `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.nest('[', ']', body)
    }

    /// Write an object key; the next value written is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.sep();
        write_str(&mut self.out, key);
        self.out.push(':');
        self.fresh = true;
        self
    }

    /// Write one leaf value (an array element, or the value after
    /// [`Json::key`]).
    pub fn value(&mut self, v: impl JsonValue) -> &mut Self {
        self.sep();
        v.write_json(&mut self.out);
        self
    }

    /// Write `null`.
    pub fn null(&mut self) -> &mut Self {
        self.value(None::<u64>)
    }

    /// Write one `"key":value` object member.
    pub fn field(&mut self, key: &str, v: impl JsonValue) -> &mut Self {
        self.key(key).value(v)
    }
}

/// Encode one object whose members `body` writes, reserving `bytes`.
#[must_use]
pub fn object(bytes: usize, body: impl FnOnce(&mut Json)) -> String {
    let mut w = Json {
        out: String::with_capacity(bytes),
        fresh: true,
    };
    w.object(body);
    w.out
}

/// A leaf value the writer knows how to spell.
pub trait JsonValue {
    /// Append this value's JSON spelling to `out`.
    fn write_json(&self, out: &mut String);
}

macro_rules! integers {
    ($($t:ty),*) => {$(
        impl JsonValue for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
integers!(u64, u128, usize);

impl JsonValue for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self:.4}");
        } else {
            out.push_str("null");
        }
    }
}

impl JsonValue for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl JsonValue for str {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl JsonValue for String {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl<T: JsonValue + ?Sized> JsonValue for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: JsonValue> JsonValue for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

/// Append `s` as a quoted, escaped JSON string. Every escaped byte is
/// ASCII, so the unescaped runs between them are whole UTF-8 slices.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if esc.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(esc);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn string(s: &str) -> String {
        let mut out = String::new();
        write_str(&mut out, s);
        out
    }

    #[test]
    fn every_escape_class() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b"), "\"a\\\"b\"");
        assert_eq!(string("a\\b"), "\"a\\\\b\"");
        assert_eq!(string("a\nb\rc\td"), "\"a\\nb\\rc\\td\"");
        assert_eq!(string("\u{1}\u{1f}"), "\"\\u0001\\u001f\"");
        // Non-ASCII passes through untouched, around escapes too.
        assert_eq!(string("é\n→"), "\"é\\n→\"");
        assert_eq!(string(""), "\"\"");
    }

    #[test]
    fn nested_containers_place_their_own_commas() {
        let j = object(0, |w| {
            w.field("a", 1u64)
                .key("b")
                .array(|w| {
                    w.value(1u64).object(|_| {}).array(|_| {}).value("x");
                })
                .key("c")
                .object(|w| {
                    w.field("d", true).key("e").array(|w| {
                        w.object(|w| {
                            w.field("f", false);
                        });
                    });
                })
                .field("g", "h");
        });
        assert_eq!(
            j,
            "{\"a\":1,\"b\":[1,{},[],\"x\"],\"c\":{\"d\":true,\"e\":[{\"f\":false}]},\"g\":\"h\"}"
        );
        assert_eq!(object(0, |_| {}), "{}");
    }

    #[test]
    fn none_is_null() {
        let j = object(0, |w| {
            w.field("a", None::<usize>)
                .field("b", Some(7usize))
                .field("c", None::<&str>)
                .field("d", Some("s"))
                .key("e")
                .null();
        });
        assert_eq!(j, "{\"a\":null,\"b\":7,\"c\":null,\"d\":\"s\",\"e\":null}");
    }

    #[test]
    fn floats_take_four_decimals_and_integers_none() {
        let j = object(0, |w| {
            w.field("f", 45.0)
                .field("g", 2.0 / 3.0)
                .field("h", 1.23456)
                .field("nan", f64::NAN)
                .field("inf", f64::INFINITY)
                .field("u", u64::MAX)
                .field("w", u128::MAX);
        });
        assert_eq!(
            j,
            format!(
                "{{\"f\":45.0000,\"g\":0.6667,\"h\":1.2346,\"nan\":null,\"inf\":null,\
                 \"u\":{},\"w\":{}}}",
                u64::MAX,
                u128::MAX
            )
        );
    }
}
