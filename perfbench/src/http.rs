//! A minimal HTTP/1.1 keep-alive client and a `/metrics` scraper.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One keep-alive connection.
pub struct Conn {
    stream: BufReader<TcpStream>,
}

impl Conn {
    /// Connect with Nagle off (piecemeal writes would stall on delayed
    /// ACKs and dominate the measured latency).
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream: BufReader::new(stream),
        })
    }

    /// Send one request in a single write and read the whole response.
    pub fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        let frame = format!(
            "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.get_mut().write_all(frame.as_bytes())?;
        let mut line = String::new();
        self.stream.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            if self.stream.read_line(&mut header)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let header = header.trim();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| std::io::Error::other("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.stream.read_exact(&mut body)?;
        Ok((status, String::from_utf8_lossy(&body).into_owned()))
    }
}

/// One request on a fresh connection.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    Conn::connect(addr)?.exchange("GET", path, "")
}

/// A `/metrics` scrape (Prometheus text exposition).
pub struct Scrape {
    text: String,
}

impl Scrape {
    /// Scrape the server; an empty scrape on failure.
    pub fn take(addr: SocketAddr) -> Scrape {
        let text = match get(addr, "/metrics") {
            Ok((200, text)) => text,
            _ => String::new(),
        };
        Scrape { text }
    }

    /// Sum of every series of `name` whose labels contain `label`
    /// (`""` matches all).
    pub fn sum(&self, name: &str, label: &str) -> f64 {
        self.series(name)
            .filter(|(labels, _)| labels.contains(label))
            .map(|(_, v)| v)
            .sum()
    }

    /// Cumulative bucket counts `(le, count)` of histogram `name`, summed
    /// over its series, in ascending `le` order (`+Inf` last).
    pub fn buckets(&self, name: &str) -> Vec<(f64, f64)> {
        let mut out: Vec<(f64, f64)> = Vec::new();
        for (labels, v) in self.series(&format!("{name}_bucket")) {
            let Some(le) = labels
                .split("le=\"")
                .nth(1)
                .and_then(|rest| rest.split('"').next())
            else {
                continue;
            };
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().unwrap_or(f64::INFINITY)
            };
            match out.iter_mut().find(|(b, _)| *b == le) {
                Some(slot) => slot.1 += v,
                None => out.push((le, v)),
            }
        }
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }

    /// `(labels, value)` of every sample line of metric `name`.
    fn series<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (&'a str, f64)> + 'a {
        self.text.lines().filter_map(move |line| {
            let rest = line.strip_prefix(name)?;
            let (labels, value) = if let Some(r) = rest.strip_prefix('{') {
                let (labels, value) = r.split_once('}')?;
                (labels, value)
            } else if rest.starts_with(' ') {
                ("", rest)
            } else {
                return None;
            };
            Some((labels, value.trim().parse().ok()?))
        })
    }
}

/// Quantile `q` of the observations between two scrapes of a histogram,
/// interpolated linearly inside the bucket (the Prometheus
/// `histogram_quantile` rule); 0 when nothing was observed.
pub fn quantile_between(before: &[(f64, f64)], after: &[(f64, f64)], q: f64) -> f64 {
    let delta: Vec<(f64, f64)> = after
        .iter()
        .map(|&(le, n)| {
            let prev = before.iter().find(|(b, _)| *b == le).map_or(0.0, |p| p.1);
            (le, n - prev)
        })
        .collect();
    let Some(&(_, total)) = delta.last() else {
        return 0.0;
    };
    if total <= 0.0 {
        return 0.0;
    }
    let rank = q * total;
    let mut prev_le = 0.0;
    let mut prev_count = 0.0;
    for &(le, count) in &delta {
        if count >= rank {
            if le.is_infinite() {
                return prev_le;
            }
            let width = count - prev_count;
            let frac = if width > 0.0 {
                (rank - prev_count) / width
            } else {
                1.0
            };
            return prev_le + (le - prev_le) * frac;
        }
        prev_le = le;
        prev_count = count;
    }
    prev_le
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_sums_series_and_interpolates_buckets() {
        let s = Scrape {
            text: "# TYPE x counter\nx_total{a=\"1\"} 2\nx_total{a=\"2\"} 3\nx_total_other 9\n\
                   h_bucket{le=\"0.1\"} 1\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"+Inf\"} 4\n"
                .to_string(),
        };
        assert_eq!(s.sum("x_total", ""), 5.0);
        assert_eq!(s.sum("x_total", "a=\"2\""), 3.0);
        let after = s.buckets("h");
        assert_eq!(after, vec![(0.1, 1.0), (1.0, 3.0), (f64::INFINITY, 4.0)]);
        let before = vec![(0.1, 1.0), (1.0, 1.0), (f64::INFINITY, 1.0)];
        // Three new observations: two in (0.1, 1], one above 1.
        let q50 = quantile_between(&before, &after, 0.5);
        assert!((q50 - (0.1 + 0.9 * 0.75)).abs() < 1e-12, "{q50}");
        assert_eq!(quantile_between(&before, &after, 1.0), 1.0);
    }
}
