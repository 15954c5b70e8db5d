//! The vDSO page: a fingerprintable shared library mapped into every
//! process.
//!
//! The XSA-148 exploit's privilege escalation works by scanning machine
//! memory for dom0, locating the vDSO page ("which can be easily
//! fingerprinted in memory"), and patching a backdoor into it: the next
//! time *any* process — including root's — calls into the vDSO, the
//! backdoor runs with that process's privileges and opens a reverse shell.

use hvsim_mem::PAGE_SIZE;

/// Magic bytes at the start of the vDSO image (an ELF-like fingerprint).
pub const VDSO_MAGIC: &[u8; 8] = b"\x7fVDSO64\0";

/// Marker an installed backdoor starts with.
pub const BACKDOOR_MAGIC: &[u8; 8] = b"BKDR\xde\xad\xbe\xef";

/// Byte offset inside the vDSO page where the `__vdso_gettimeofday`
/// "entry point" lives — the spot the backdoor overwrites.
pub const VDSO_ENTRY_OFFSET: usize = 0x400;

/// Builds the pristine vDSO page image.
pub fn vdso_image() -> Vec<u8> {
    let mut page = vec![0u8; PAGE_SIZE];
    page[..8].copy_from_slice(VDSO_MAGIC);
    let symtab = b"__vdso_gettimeofday\0__vdso_clock_gettime\0__vdso_getcpu\0";
    page[0x40..0x40 + symtab.len()].copy_from_slice(symtab);
    // A recognizable "function body": RET-sleds standing in for code.
    for b in page[VDSO_ENTRY_OFFSET..VDSO_ENTRY_OFFSET + 64].iter_mut() {
        *b = 0xc3;
    }
    page
}

/// A parsed backdoor, if one is installed in a vDSO image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Backdoor {
    /// Host the reverse shell connects to.
    pub host: String,
    /// TCP port.
    pub port: u16,
}

impl Backdoor {
    /// The longest backdoor blob: magic, port, host length and a host of
    /// at most 255 bytes.
    pub const MAX_WIRE_LEN: usize = 11 + u8::MAX as usize;

    /// How much of a vDSO image [`parse`](Self::parse) can look at: a
    /// reader needs only this prefix of the page.
    pub const IMAGE_PREFIX_LEN: usize = VDSO_ENTRY_OFFSET + Self::MAX_WIRE_LEN;

    /// Serializes the backdoor blob the exploit writes over the vDSO
    /// entry point.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(BACKDOOR_MAGIC);
        out.extend_from_slice(&self.port.to_le_bytes());
        let host = self.host.as_bytes();
        out.push(host.len() as u8);
        out.extend_from_slice(host);
        out
    }

    /// Parses a backdoor from a vDSO image, if present at the entry
    /// point.
    pub fn parse(image: &[u8]) -> Option<Backdoor> {
        let at = image.get(VDSO_ENTRY_OFFSET..)?;
        if at.len() < 11 || &at[..8] != BACKDOOR_MAGIC {
            return None;
        }
        let port = u16::from_le_bytes([at[8], at[9]]);
        let len = at[10] as usize;
        let host = String::from_utf8_lossy(at.get(11..11 + len)?).into_owned();
        Some(Backdoor { host, port })
    }
}

/// `true` if `image` starts with the vDSO fingerprint.
pub fn is_vdso_page(image: &[u8]) -> bool {
    image.len() >= 8 && &image[..8] == VDSO_MAGIC
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pristine_image_fingerprint() {
        let img = vdso_image();
        assert_eq!(img.len(), PAGE_SIZE);
        assert!(is_vdso_page(&img));
        assert!(Backdoor::parse(&img).is_none());
        assert_eq!(img[VDSO_ENTRY_OFFSET], 0xc3);
    }

    #[test]
    fn backdoor_roundtrip() {
        let mut img = vdso_image();
        let bd = Backdoor {
            host: "10.3.1.181".into(),
            port: 1234,
        };
        let blob = bd.to_bytes();
        img[VDSO_ENTRY_OFFSET..VDSO_ENTRY_OFFSET + blob.len()].copy_from_slice(&blob);
        assert_eq!(Backdoor::parse(&img), Some(bd));
        // Still fingerprints as a vDSO page (the exploit only patches the
        // entry point).
        assert!(is_vdso_page(&img));
    }

    #[test]
    fn longest_backdoor_fits_the_image_prefix() {
        let mut img = vdso_image();
        let bd = Backdoor { host: "h".repeat(255), port: 4444 };
        let blob = bd.to_bytes();
        assert_eq!(blob.len(), Backdoor::MAX_WIRE_LEN);
        img[VDSO_ENTRY_OFFSET..VDSO_ENTRY_OFFSET + blob.len()].copy_from_slice(&blob);
        assert_eq!(Backdoor::parse(&img[..Backdoor::IMAGE_PREFIX_LEN]), Some(bd));
    }

    #[test]
    fn short_or_foreign_pages_rejected() {
        assert!(!is_vdso_page(b"short"));
        assert!(!is_vdso_page(&[0u8; 4096]));
        assert!(Backdoor::parse(&[0u8; 64]).is_none());
    }
}
