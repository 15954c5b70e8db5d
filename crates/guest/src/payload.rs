//! The recognizable "shellcode" blob.
//!
//! The XSA-212-priv exploit hides attacker code in physical memory, maps
//! it at a virtual address every PV guest can reach, and executes it in
//! every domain by registering it as an interrupt handler. The simulator
//! cannot execute machine code, so the injected code is a structured blob:
//! a magic header plus an encoded [`PayloadCommand`] the [`World`]
//! interprets *with kernel privileges in each domain it executes in* —
//! which is exactly the security property the experiment measures.
//!
//! # Wire format
//!
//! All integers are little-endian.
//!
//! | bytes | field |
//! |---|---|
//! | 4 | [`PAYLOAD_MAGIC`] |
//! | 4 | body length `n` |
//! | `n` | body: a one-byte command tag, then the command's strings |
//!
//! Each string is a `u16` byte length followed by that many bytes of
//! UTF-8. `DropRootFile` (tag 0) carries `path` then `template`;
//! `KlogMarker` (tag 1) carries `marker`. A body with bytes left over
//! after its last string is malformed.
//!
//! [`World`]: crate::World

/// Magic header identifying an executable payload blob.
pub const PAYLOAD_MAGIC: u32 = 0xb4c0_de77;

/// Body tag of [`PayloadCommand::DropRootFile`].
const TAG_DROP_ROOT_FILE: u8 = 0;
/// Body tag of [`PayloadCommand::KlogMarker`].
const TAG_KLOG_MARKER: u8 = 1;

/// What the payload does when executed in a domain.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum PayloadCommand {
    /// Run a command as root and drop its output into a file — the
    /// `./attack 'echo "|$(id)|@$(hostname)"' > /tmp/injector_log`
    /// behaviour of the original PoC. The template may contain `$(id)`
    /// and `$(hostname)`, expanded per domain at execution time.
    DropRootFile {
        /// Target path in each domain's VFS.
        path: String,
        /// Content template (`$(id)`, `$(hostname)` are expanded).
        template: String,
    },
    /// Append a marker line to each domain's kernel log (a benign
    /// payload used by tests and ablations).
    KlogMarker {
        /// The marker text.
        marker: String,
    },
}

/// A payload blob: magic + command.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Payload {
    /// The command to run in each domain.
    pub command: PayloadCommand,
}

impl Payload {
    /// The classic PoC payload.
    pub fn drop_root_file(path: &str, template: &str) -> Self {
        Self {
            command: PayloadCommand::DropRootFile {
                path: path.to_owned(),
                template: template.to_owned(),
            },
        }
    }

    /// Encodes the blob in the wire format described in the [module
    /// documentation](self).
    ///
    /// # Panics
    ///
    /// If a string is longer than `u16::MAX` bytes, which its length
    /// field cannot hold.
    pub fn to_bytes(&self) -> Vec<u8> {
        let (tag, strings): (u8, &[&str]) = match &self.command {
            PayloadCommand::DropRootFile { path, template } => {
                (TAG_DROP_ROOT_FILE, &[path.as_str(), template.as_str()])
            }
            PayloadCommand::KlogMarker { marker } => (TAG_KLOG_MARKER, &[marker.as_str()]),
        };
        let body_len = 1 + strings.iter().map(|s| 2 + s.len()).sum::<usize>();
        let mut out = Vec::with_capacity(8 + body_len);
        out.extend_from_slice(&PAYLOAD_MAGIC.to_le_bytes());
        out.extend_from_slice(&(body_len as u32).to_le_bytes());
        out.push(tag);
        for s in strings {
            let len = u16::try_from(s.len()).expect("payload string fits its u16 length field");
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        out
    }

    /// Parses a blob from memory; bytes past the body are ignored.
    /// Returns `None` for a bad magic, a body length past the buffer, an
    /// unknown tag, a truncated string, bad UTF-8 or bytes left over in
    /// the body — executing garbage is a fault, not a panic.
    pub fn parse(bytes: &[u8]) -> Option<Payload> {
        let magic = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?);
        if magic != PAYLOAD_MAGIC {
            return None;
        }
        let len = u32::from_le_bytes(bytes.get(4..8)?.try_into().ok()?) as usize;
        let (&tag, mut rest) = bytes.get(8..)?.get(..len)?.split_first()?;
        let command = match tag {
            TAG_DROP_ROOT_FILE => PayloadCommand::DropRootFile {
                path: take_string(&mut rest)?,
                template: take_string(&mut rest)?,
            },
            TAG_KLOG_MARKER => PayloadCommand::KlogMarker {
                marker: take_string(&mut rest)?,
            },
            _ => return None,
        };
        rest.is_empty().then_some(Payload { command })
    }

    /// Expands a content template for one domain.
    pub fn expand_template(template: &str, uid_id_string: &str, hostname: &str) -> String {
        template
            .replace("$(id)", uid_id_string)
            .replace("$(hostname)", hostname)
    }
}

/// Splits one length-prefixed UTF-8 string off the front of `rest`.
fn take_string(rest: &mut &[u8]) -> Option<String> {
    let len = u16::from_le_bytes(rest.get(..2)?.try_into().ok()?) as usize;
    let raw = rest.get(2..2 + len)?;
    *rest = &rest[2 + len..];
    std::str::from_utf8(raw).ok().map(str::to_owned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn klog_marker(marker: &str) -> Payload {
        Payload { command: PayloadCommand::KlogMarker { marker: marker.to_owned() } }
    }

    /// A blob with the right magic and `body` behind a correct length.
    fn blob(body: &[u8]) -> Vec<u8> {
        let mut out = PAYLOAD_MAGIC.to_le_bytes().to_vec();
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(body);
        out
    }

    #[test]
    fn roundtrip() {
        for p in [
            Payload::drop_root_file("/tmp/injector_log", "|$(id)|@$(hostname)"),
            Payload::drop_root_file("", ""),
            klog_marker("pwned ✓"),
            klog_marker(""),
            klog_marker(&"x".repeat(usize::from(u16::MAX))),
        ] {
            let mut code = p.to_bytes();
            assert_eq!(Payload::parse(&code).as_ref(), Some(&p));
            // A handler fetch reads on past the blob; those bytes are
            // not the payload's.
            code.extend_from_slice(&[0xcc; 64]);
            assert_eq!(Payload::parse(&code), Some(p));
        }
    }

    #[test]
    fn the_wire_layout_is_tag_then_length_prefixed_strings() {
        let bytes = Payload::drop_root_file("/a", "xyz").to_bytes();
        let mut want = PAYLOAD_MAGIC.to_le_bytes().to_vec();
        want.extend_from_slice(&10u32.to_le_bytes());
        want.extend_from_slice(&[0, 2, 0, b'/', b'a', 3, 0, b'x', b'y', b'z']);
        assert_eq!(bytes, want);
        assert_eq!(klog_marker("m").to_bytes()[8..], [1, 1, 0, b'm']);
    }

    #[test]
    fn garbage_is_not_a_payload() {
        assert_eq!(Payload::parse(&[0u8; 32]), None);
        assert_eq!(Payload::parse(b"\x77\xde\xc0\xb4garbage-len"), None);
        assert_eq!(Payload::parse(&[]), None);
        // Correct magic, truncated body.
        let mut bytes = Payload::drop_root_file("/x", "y").to_bytes();
        bytes.truncate(10);
        assert_eq!(Payload::parse(&bytes), None);

        let good = klog_marker("abc").to_bytes();
        // Bad magic.
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(Payload::parse(&bad_magic), None);
        // Header alone, or cut inside the header.
        assert_eq!(Payload::parse(&good[..7]), None);
        assert_eq!(Payload::parse(&good[..8]), None);
        // Body length past the buffer.
        let mut long = good.clone();
        long[4..8].copy_from_slice(&(good.len() as u32).to_le_bytes());
        assert_eq!(Payload::parse(&long), None);
        long[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Payload::parse(&long), None);
        // Empty body: no tag.
        assert_eq!(Payload::parse(&blob(&[])), None);
        // Unknown tag.
        assert_eq!(Payload::parse(&blob(&[2, 1, 0, b'm'])), None);
        assert_eq!(Payload::parse(&blob(&[0xff])), None);
        // Truncated string: the length prefix, or the bytes it promises.
        assert_eq!(Payload::parse(&blob(&[1, 3])), None);
        assert_eq!(Payload::parse(&blob(&[1, 3, 0, b'a', b'b'])), None);
        // A DropRootFile missing its template.
        assert_eq!(Payload::parse(&blob(&[0, 1, 0, b'/'])), None);
        // Bad UTF-8 in either string.
        assert_eq!(Payload::parse(&blob(&[1, 2, 0, 0xc3, 0x28])), None);
        assert_eq!(Payload::parse(&blob(&[0, 1, 0, b'/', 1, 0, 0xff])), None);
        // Bytes left over in the body after the last string.
        assert_eq!(Payload::parse(&blob(&[1, 1, 0, b'm', 0])), None);
    }

    #[test]
    #[should_panic(expected = "u16 length field")]
    fn a_string_past_the_length_field_does_not_encode() {
        klog_marker(&"x".repeat(usize::from(u16::MAX) + 1)).to_bytes();
    }

    /// Any Unicode scalar value, spread over the one- to four-byte
    /// UTF-8 widths.
    fn chars(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
        proptest::collection::vec(0u32..0x11_0000, len)
            .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
    }

    proptest! {
        #[test]
        fn parse_is_total_on_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
            magic in any::<bool>(),
            len in 0u32..100,
        ) {
            let mut bytes = bytes;
            // Half the inputs get past the magic and a plausible length.
            if magic && bytes.len() >= 8 {
                bytes[..4].copy_from_slice(&PAYLOAD_MAGIC.to_le_bytes());
                bytes[4..8].copy_from_slice(&len.to_le_bytes());
            }
            let _ = Payload::parse(&bytes);
        }

        #[test]
        fn parse_is_total_on_corrupted_blobs(
            path in chars(0..24),
            at in any::<usize>(),
            flip in 1u8..=255,
        ) {
            let mut bytes = Payload::drop_root_file(&path, "t").to_bytes();
            let at = at % bytes.len();
            bytes[at] ^= flip;
            let _ = Payload::parse(&bytes);
        }

        #[test]
        fn parse_inverts_to_bytes(
            path in chars(0..48),
            template in chars(0..48),
            marker in chars(0..48),
        ) {
            let drop = Payload::drop_root_file(&path, &template);
            prop_assert_eq!(Payload::parse(&drop.to_bytes()), Some(drop));
            let klog = klog_marker(&marker);
            prop_assert_eq!(Payload::parse(&klog.to_bytes()), Some(klog));
        }
    }

    #[test]
    fn template_expansion_matches_poc_output() {
        let s = Payload::expand_template(
            "|$(id)|@$(hostname)",
            "uid=0(root) gid=0(root) groups=0(root)",
            "xen3",
        );
        assert_eq!(s, "|uid=0(root) gid=0(root) groups=0(root)|@xen3");
    }
}
