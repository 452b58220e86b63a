//! A small, strict URL type for the simulated web.
//!
//! Simulated URLs use the `sim://` scheme: `sim://host/path?key=value`.
//! The type is deliberately narrower than a general-purpose URL crate —
//! no userinfo, ports, or fragments — because the simulated web never
//! produces them, and a smaller grammar means parse errors surface bugs
//! in corpus generation instead of being silently absorbed.

use serde::{Deserialize, Serialize};
use std::fmt;
use thiserror::Error;

/// URL parse failures.
#[derive(Debug, Error, Clone, PartialEq, Eq)]
pub enum UrlError {
    #[error("missing scheme separator '://' in {0:?}")]
    MissingScheme(String),
    #[error("unsupported scheme {0:?} (expected \"sim\")")]
    UnsupportedScheme(String),
    #[error("empty host in {0:?}")]
    EmptyHost(String),
    #[error("invalid character {ch:?} in host {host:?}")]
    InvalidHostChar { host: String, ch: char },
    #[error("malformed query pair {0:?} (expected key=value)")]
    MalformedQuery(String),
}

/// A parsed `sim://` URL.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Url {
    host: String,
    path: String,
    query: Vec<(String, String)>,
}

impl Url {
    /// Parse a `sim://host/path?k=v&k2=v2` string.
    pub fn parse(s: &str) -> Result<Url, UrlError> {
        let rest = s
            .strip_prefix("sim://")
            .ok_or_else(|| match s.find("://") {
                Some(i) => UrlError::UnsupportedScheme(s[..i].to_string()),
                None => UrlError::MissingScheme(s.to_string()),
            })?;

        let (host_path, query_str) = match rest.split_once('?') {
            Some((hp, q)) => (hp, Some(q)),
            None => (rest, None),
        };

        let (host, path) = match host_path.split_once('/') {
            Some((h, p)) => (h, format!("/{p}")),
            None => (host_path, "/".to_string()),
        };

        if host.is_empty() {
            return Err(UrlError::EmptyHost(s.to_string()));
        }
        if let Some(ch) = host
            .chars()
            .find(|c| !(c.is_ascii_alphanumeric() || *c == '.' || *c == '-'))
        {
            return Err(UrlError::InvalidHostChar {
                host: host.to_string(),
                ch,
            });
        }

        let mut query = Vec::new();
        if let Some(q) = query_str {
            for pair in q.split('&').filter(|p| !p.is_empty()) {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| UrlError::MalformedQuery(pair.to_string()))?;
                query.push((decode(k), decode(v)));
            }
        }

        Ok(Url {
            host: host.to_string(),
            path,
            query,
        })
    }

    /// Build a URL from parts, percent-encoding query values.
    pub fn build(host: &str, path: &str, query: &[(&str, &str)]) -> Url {
        let path = if path.starts_with('/') {
            path.to_string()
        } else {
            format!("/{path}")
        };
        Url {
            host: host.to_string(),
            path,
            query: query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    pub fn host(&self) -> &str {
        &self.host
    }

    pub fn path(&self) -> &str {
        &self.path
    }

    /// The path split into non-empty segments.
    pub fn path_segments(&self) -> impl Iterator<Item = &str> {
        self.path.split('/').filter(|s| !s.is_empty())
    }

    /// First query value for `key`, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sim://{}{}", self.host, self.path)?;
        for (i, (k, v)) in self.query.iter().enumerate() {
            write!(
                f,
                "{}{}={}",
                if i == 0 { "?" } else { "&" },
                encode(k),
                encode(v)
            )?;
        }
        Ok(())
    }
}

impl std::str::FromStr for Url {
    type Err = UrlError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Url::parse(s)
    }
}

/// Percent-encode spaces and reserved characters in query strings.
fn encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            ' ' => out.push('+'),
            '&' => out.push_str("%26"),
            '=' => out.push_str("%3D"),
            '%' => out.push_str("%25"),
            '+' => out.push_str("%2B"),
            '?' => out.push_str("%3F"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`encode`]; tolerant of stray `%` (passed through).
fn decode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars().peekable();
    while let Some(ch) = chars.next() {
        match ch {
            '+' => out.push(' '),
            '%' => {
                let hex: String = chars.clone().take(2).collect();
                match (hex.len() == 2)
                    .then(|| u8::from_str_radix(&hex, 16).ok())
                    .flatten()
                {
                    Some(b) => {
                        chars.next();
                        chars.next();
                        out.push(b as char);
                    }
                    None => out.push('%'),
                }
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_url() {
        let u = Url::parse("sim://search.test/q?query=solar+storm&page=2").unwrap();
        assert_eq!(u.host(), "search.test");
        assert_eq!(u.path(), "/q");
        assert_eq!(u.query_param("query"), Some("solar storm"));
        assert_eq!(u.query_param("page"), Some("2"));
        assert_eq!(u.query_param("missing"), None);
    }

    #[test]
    fn parses_bare_host() {
        let u = Url::parse("sim://news.test").unwrap();
        assert_eq!(u.path(), "/");
        assert_eq!(u.path_segments().count(), 0);
    }

    #[test]
    fn rejects_bad_urls() {
        assert!(
            matches!(Url::parse("http://x.test/"), Err(UrlError::UnsupportedScheme(s)) if s == "http")
        );
        assert!(matches!(
            Url::parse("no-scheme"),
            Err(UrlError::MissingScheme(_))
        ));
        assert!(matches!(
            Url::parse("sim:///path"),
            Err(UrlError::EmptyHost(_))
        ));
        assert!(matches!(
            Url::parse("sim://bad_host/x"),
            Err(UrlError::InvalidHostChar { ch: '_', .. })
        ));
        assert!(matches!(
            Url::parse("sim://h.test/p?novalue"),
            Err(UrlError::MalformedQuery(_))
        ));
    }

    #[test]
    fn display_round_trips() {
        for s in [
            "sim://a.test/",
            "sim://a.test/x/y/z",
            "sim://a.test/q?k=v+with+spaces&n=2",
        ] {
            let u = Url::parse(s).unwrap();
            assert_eq!(Url::parse(&u.to_string()).unwrap(), u, "round-trip of {s}");
        }
    }

    #[test]
    fn build_normalizes_path() {
        let u = Url::build("h.test", "docs/1", &[("q", "a b")]);
        assert_eq!(u.path(), "/docs/1");
        assert_eq!(u.to_string(), "sim://h.test/docs/1?q=a+b");
    }

    #[test]
    fn query_encoding_round_trips_reserved_chars() {
        let u = Url::build("h.test", "/q", &[("k", "a=b&c+d%e?f")]);
        let parsed = Url::parse(&u.to_string()).unwrap();
        assert_eq!(parsed.query_param("k"), Some("a=b&c+d%e?f"));
    }

    #[test]
    fn path_segments_skips_empties() {
        let u = Url::parse("sim://h.test//a//b/").unwrap();
        let segs: Vec<_> = u.path_segments().collect();
        assert_eq!(segs, vec!["a", "b"]);
    }
}
