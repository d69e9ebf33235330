//! Identifiers for the parties of the protocol.

use std::fmt;
use zmail_sim::workload::UserAddr;

/// Index of an ISP (the paper's `i` in `isp[i]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IspId(pub u32);

impl fmt::Display for IspId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "isp[{}]", self.0)
    }
}

impl IspId {
    /// The index as a `usize` for array access.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for IspId {
    fn from(v: u32) -> Self {
        IspId(v)
    }
}

/// Renders a user address as an RFC-style mailbox for the SMTP bridge
/// (`u3@isp1.example`).
pub fn mailbox(addr: UserAddr) -> String {
    format!("u{}@isp{}.example", addr.user, addr.isp)
}

/// Parses a mailbox produced by [`mailbox`] back into a [`UserAddr`].
///
/// Returns `None` for foreign addresses, which the SMTP bridge treats as
/// non-Zmail mail.
pub fn parse_mailbox(s: &str) -> Option<UserAddr> {
    let (local, domain) = s.split_once('@')?;
    let user: u32 = local.strip_prefix('u')?.parse().ok()?;
    let isp: u32 = domain
        .strip_suffix(".example")?
        .strip_prefix("isp")?
        .parse()
        .ok()?;
    Some(UserAddr { isp, user })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isp_id_display_and_index() {
        assert_eq!(IspId(3).to_string(), "isp[3]");
        assert_eq!(IspId(3).index(), 3);
        assert_eq!(IspId::from(7u32), IspId(7));
    }

    #[test]
    fn mailbox_roundtrip() {
        let addr = UserAddr::new(2, 15);
        assert_eq!(mailbox(addr), "u15@isp2.example");
        assert_eq!(parse_mailbox("u15@isp2.example"), Some(addr));
    }

    #[test]
    fn foreign_mailboxes_rejected() {
        for foreign in [
            "alice@gmail.example",
            "u5@isp.example",
            "5@isp1.example",
            "u5isp1.example",
            "u5@isp1.org",
            "ux@isp1.example",
        ] {
            assert_eq!(parse_mailbox(foreign), None, "{foreign}");
        }
    }
}
