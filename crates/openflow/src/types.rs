//! Packet headers, match fields and actions.

use std::fmt;
use std::str::FromStr;

/// A switch port number.
pub type PortId = u16;

/// A VLAN tag — the paper uses VLAN IDs as two-phase version numbers.
pub type VlanId = u16;

/// An IPv4 prefix in CIDR notation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Ipv4Prefix {
    addr: u32,
    len: u8,
}

impl Ipv4Prefix {
    /// Creates a prefix, masking the address down to `len` bits.
    ///
    /// # Panics
    /// Panics if `len > 32`.
    pub fn new(addr: u32, len: u8) -> Self {
        assert!(len <= 32, "prefix length must be at most 32");
        Ipv4Prefix {
            addr: addr & Self::mask(len),
            len,
        }
    }

    /// The canonical all-matching prefix `0.0.0.0/0`.
    pub fn any() -> Self {
        Ipv4Prefix { addr: 0, len: 0 }
    }

    /// A /32 host prefix.
    pub fn host(addr: u32) -> Self {
        Ipv4Prefix { addr, len: 32 }
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// Prefix length in bits (a /0 matches any address; it is not
    /// "empty" — there is deliberately no `is_empty`).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// The masked network address.
    pub fn network(&self) -> u32 {
        self.addr
    }

    /// Does `ip` fall inside this prefix?
    pub fn contains(&self, ip: u32) -> bool {
        (ip & Self::mask(self.len)) == self.addr
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let a = self.addr;
        write!(
            f,
            "{}.{}.{}.{}/{}",
            a >> 24,
            (a >> 16) & 0xff,
            (a >> 8) & 0xff,
            a & 0xff,
            self.len
        )
    }
}

/// Error parsing an [`Ipv4Prefix`] from text.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ParsePrefixError;

impl fmt::Display for ParsePrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expected a.b.c.d/len")
    }
}

impl std::error::Error for ParsePrefixError {}

impl FromStr for Ipv4Prefix {
    type Err = ParsePrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (ip, len) = s.split_once('/').ok_or(ParsePrefixError)?;
        let len: u8 = len.parse().map_err(|_| ParsePrefixError)?;
        if len > 32 {
            return Err(ParsePrefixError);
        }
        let mut addr: u32 = 0;
        let mut octets = 0;
        for part in ip.split('.') {
            let o: u8 = part.parse().map_err(|_| ParsePrefixError)?;
            addr = (addr << 8) | o as u32;
            octets += 1;
        }
        if octets != 4 {
            return Err(ParsePrefixError);
        }
        Ok(Ipv4Prefix::new(addr, len))
    }
}

/// A (simplified) packet header, as seen by the match pipeline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Packet {
    /// Ingress port at the current switch.
    pub in_port: PortId,
    /// Source IPv4 address.
    pub src: u32,
    /// Destination IPv4 address.
    pub dst: u32,
    /// VLAN tag, if stamped (the two-phase version number).
    pub vlan: Option<VlanId>,
    /// Payload size in bytes (for byte counters).
    pub bytes: u64,
}

impl Packet {
    /// A convenience constructor with 1500-byte payload and no tag.
    pub fn new(in_port: PortId, src: u32, dst: u32) -> Self {
        Packet {
            in_port,
            src,
            dst,
            vlan: None,
            bytes: 1500,
        }
    }
}

/// OpenFlow-style match fields; `None` is a wildcard (paper Table II:
/// `*` entries).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Match {
    /// Ingress port.
    pub in_port: Option<PortId>,
    /// Source prefix.
    pub src: Option<Ipv4Prefix>,
    /// Destination prefix — the paper's forwarding key ("we use the
    /// destination IP address as the matching field").
    pub dst: Option<Ipv4Prefix>,
    /// VLAN tag.
    pub vlan: Option<VlanId>,
}

impl Match {
    /// A match on destination prefix only.
    pub fn dst_prefix(p: Ipv4Prefix) -> Self {
        Match {
            dst: Some(p),
            ..Default::default()
        }
    }

    /// Does the packet satisfy every specified field?
    pub fn matches(&self, pkt: &Packet) -> bool {
        if let Some(p) = self.in_port {
            if p != pkt.in_port {
                return false;
            }
        }
        if let Some(pre) = self.src {
            if !pre.contains(pkt.src) {
                return false;
            }
        }
        if let Some(pre) = self.dst {
            if !pre.contains(pkt.dst) {
                return false;
            }
        }
        if let Some(v) = self.vlan {
            if pkt.vlan != Some(v) {
                return false;
            }
        }
        true
    }

    /// Destination-prefix length used for longest-prefix tie-breaking
    /// (0 for wildcard).
    pub fn dst_len(&self) -> u8 {
        self.dst.map_or(0, |p| p.len())
    }
}

impl fmt::Display for Match {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn field<T: fmt::Display>(v: &Option<T>) -> String {
            v.as_ref().map_or_else(|| "*".into(), T::to_string)
        }
        write!(
            f,
            "in={} src={} dst={} vlan={}",
            field(&self.in_port),
            field(&self.src),
            field(&self.dst),
            field(&self.vlan)
        )
    }
}

/// Forwarding actions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Action {
    /// Emit on a port.
    Output(PortId),
    /// Flood to all ports except the ingress (the paper floods ARP).
    Flood,
    /// Stamp the packet with a VLAN tag (two-phase phase 2).
    SetVlan(VlanId),
    /// Remove the VLAN tag.
    StripVlan,
    /// Drop the packet.
    Drop,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Output(p) => write!(f, "Output: {p}"),
            Action::Flood => write!(f, "Flood"),
            Action::SetVlan(v) => write!(f, "SetVlan: {v}"),
            Action::StripVlan => write!(f, "StripVlan"),
            Action::Drop => write!(f, "Drop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> u32 {
        u32::from_be_bytes([a, b, c, d])
    }

    #[test]
    fn prefix_masking_and_contains() {
        let p = Ipv4Prefix::new(ip(10, 0, 1, 7), 24);
        assert_eq!(p.network(), ip(10, 0, 1, 0));
        assert!(p.contains(ip(10, 0, 1, 200)));
        assert!(!p.contains(ip(10, 0, 2, 1)));
        assert_eq!(p.to_string(), "10.0.1.0/24");
        assert!(Ipv4Prefix::any().contains(ip(1, 2, 3, 4)));
        assert!(Ipv4Prefix::host(ip(10, 0, 0, 1)).contains(ip(10, 0, 0, 1)));
        assert!(!Ipv4Prefix::host(ip(10, 0, 0, 1)).contains(ip(10, 0, 0, 2)));
    }

    #[test]
    fn prefix_parsing() {
        let p: Ipv4Prefix = "10.0.1.0/24".parse().unwrap();
        assert_eq!(p, Ipv4Prefix::new(ip(10, 0, 1, 0), 24));
        assert!("10.0.1.0".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.1/24".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.1.0/40".parse::<Ipv4Prefix>().is_err());
        assert!("a.b.c.d/8".parse::<Ipv4Prefix>().is_err());
    }

    #[test]
    #[should_panic(expected = "at most 32")]
    fn prefix_rejects_long_len() {
        let _ = Ipv4Prefix::new(0, 33);
    }

    #[test]
    fn match_semantics() {
        let m = Match {
            in_port: Some(1),
            src: None,
            dst: Some(Ipv4Prefix::new(ip(10, 0, 2, 0), 24)),
            vlan: Some(5),
        };
        let tagged = |pkt: Packet| Packet {
            vlan: Some(5),
            ..pkt
        };
        let hit = tagged(Packet::new(1, ip(10, 0, 1, 1), ip(10, 0, 2, 9)));
        assert!(m.matches(&hit));
        let wrong_port = tagged(Packet::new(2, ip(10, 0, 1, 1), ip(10, 0, 2, 9)));
        assert!(!m.matches(&wrong_port));
        let no_vlan = Packet::new(1, ip(10, 0, 1, 1), ip(10, 0, 2, 9));
        assert!(!m.matches(&no_vlan));
        let wrong_dst = tagged(Packet::new(1, ip(10, 0, 1, 1), ip(10, 0, 3, 9)));
        assert!(!m.matches(&wrong_dst));
        assert_eq!(m.dst_len(), 24);
        assert!(Match::default().matches(&no_vlan));
    }

    #[test]
    fn displays() {
        let m = Match::dst_prefix(Ipv4Prefix::new(ip(10, 0, 2, 0), 24));
        assert_eq!(m.to_string(), "in=* src=* dst=10.0.2.0/24 vlan=*");
        assert_eq!(Action::Output(3).to_string(), "Output: 3");
        assert_eq!(Action::SetVlan(7).to_string(), "SetVlan: 7");
    }
}
