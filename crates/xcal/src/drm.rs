//! A binary `.drm` codec for XCAL logs.
//!
//! The real XCAL Solo writes proprietary binary `.drm` files that only the
//! licensed XCAP-M software can parse — §B calls the resulting manual
//! post-processing "a major challenge". We implement the equivalent
//! substrate: a compact little-endian binary format for [`XcalLog`] plus a
//! defensive parser, so the pipeline (capture → binary file → parse →
//! consolidate) exists end to end.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic  "DRM1"                      4 bytes
//! op     operator code byte          1
//! name_len u16 | file name           2 + n (UTF-8)
//! edt_len  u16 | content start EDT   2 + n (UTF-8)
//! start_plan_s f64                   8
//! n_samples u32                      4
//! samples: n × 44-byte record
//! n_messages u32                     4
//! messages: n × 32-byte record
//! crc32  (IEEE, over everything above)  4
//! ```

use wheels_radio::band::Technology;
use wheels_ran::cell::CellId;
use wheels_ran::operator::Operator;

use crate::kpi::KpiSample;
use crate::logger::XcalLog;
use crate::signaling::SignalingMessage;

/// File magic.
pub const MAGIC: &[u8; 4] = b"DRM1";

/// Errors the parser can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DrmError {
    /// File shorter than a field required.
    Truncated,
    /// Magic bytes wrong.
    BadMagic,
    /// Unknown operator code.
    BadOperator(u8),
    /// Unknown technology code.
    BadTechnology(u8),
    /// String field is not UTF-8.
    BadString,
    /// Checksum mismatch.
    BadChecksum,
    /// Unknown message tag.
    BadMessageTag(u8),
}

impl std::fmt::Display for DrmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DrmError::Truncated => write!(f, "truncated drm file"),
            DrmError::BadMagic => write!(f, "bad magic"),
            DrmError::BadOperator(b) => write!(f, "unknown operator code {b}"),
            DrmError::BadTechnology(b) => write!(f, "unknown technology code {b}"),
            DrmError::BadString => write!(f, "invalid utf-8 in string field"),
            DrmError::BadChecksum => write!(f, "checksum mismatch"),
            DrmError::BadMessageTag(b) => write!(f, "unknown message tag {b}"),
        }
    }
}

impl std::error::Error for DrmError {}

fn op_code(op: Operator) -> u8 {
    match op {
        Operator::Verizon => 0,
        Operator::TMobile => 1,
        Operator::Att => 2,
    }
}

fn op_from(b: u8) -> Result<Operator, DrmError> {
    match b {
        0 => Ok(Operator::Verizon),
        1 => Ok(Operator::TMobile),
        2 => Ok(Operator::Att),
        other => Err(DrmError::BadOperator(other)),
    }
}

// Wire codes are positions in the `ALL` arrays, which list every enum in
// declaration order (`codes_are_all_positions` pins this).
fn tech_code(t: Technology) -> u8 {
    t as u8
}

fn tech_from(b: u8) -> Result<Technology, DrmError> {
    Technology::ALL
        .get(b as usize)
        .copied()
        .ok_or(DrmError::BadTechnology(b))
}

/// CRC-32 (IEEE 802.3, reflected), table-free bitwise variant — the file
/// trailer checksum.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

struct Writer(Vec<u8>);

impl Writer {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn str16(&mut self, s: &str) {
        let bytes = s.as_bytes();
        self.u16(bytes.len() as u16);
        self.0.extend_from_slice(bytes);
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DrmError> {
        // Total: `checked_add` covers the `pos + n` overflow the old
        // comparison could hit, and `get` covers the range itself.
        let end = self.pos.checked_add(n).ok_or(DrmError::Truncated)?;
        let s = self.data.get(self.pos..end).ok_or(DrmError::Truncated)?;
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, DrmError> {
        self.take(1)?.first().copied().ok_or(DrmError::Truncated)
    }
    fn u16(&mut self) -> Result<u16, DrmError> {
        let b: [u8; 2] = self.take(2)?.try_into().map_err(|_| DrmError::Truncated)?;
        Ok(u16::from_le_bytes(b))
    }
    fn u32(&mut self) -> Result<u32, DrmError> {
        let b: [u8; 4] = self.take(4)?.try_into().map_err(|_| DrmError::Truncated)?;
        Ok(u32::from_le_bytes(b))
    }
    fn f32(&mut self) -> Result<f32, DrmError> {
        let b: [u8; 4] = self.take(4)?.try_into().map_err(|_| DrmError::Truncated)?;
        Ok(f32::from_le_bytes(b))
    }
    fn f64(&mut self) -> Result<f64, DrmError> {
        let b: [u8; 8] = self.take(8)?.try_into().map_err(|_| DrmError::Truncated)?;
        Ok(f64::from_le_bytes(b))
    }
    fn str16(&mut self) -> Result<String, DrmError> {
        let n = self.u16()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DrmError::BadString)
    }
}

/// Encode a log into `.drm` bytes.
pub fn encode(log: &XcalLog) -> Vec<u8> {
    let mut w = Writer(Vec::with_capacity(64 + log.samples.len() * 44));
    w.0.extend_from_slice(MAGIC);
    w.u8(op_code(log.op));
    w.str16(&log.file_name);
    w.str16(&log.content_start_edt);
    w.f64(log.start_plan_s);
    w.u32(log.samples.len() as u32);
    for k in &log.samples {
        w.f64(k.time_s);
        w.f32(k.tput_mbps.unwrap_or(f32::NAN));
        w.u8(tech_code(k.tech));
        w.u32(k.cell.0);
        w.f32(k.rsrp_dbm);
        w.f32(k.sinr_db);
        w.u8(k.mcs);
        w.f32(k.bler);
        w.u8(k.ca);
        w.u8(k.handovers_in_window);
        w.f32(k.speed_mps);
        w.f64(k.odometer_m);
        w.u8(region_code(k.region));
        w.u8(tz_code(k.timezone));
        w.u8(u8::from(k.in_handover));
    }
    w.u32(log.messages.len() as u32);
    for m in &log.messages {
        encode_message(&mut w, m);
    }
    let crc = crc32(&w.0);
    w.u32(crc);
    w.0
}

fn region_code(r: wheels_geo::region::RegionKind) -> u8 {
    r as u8
}

fn tz_code(t: wheels_geo::timezone::Timezone) -> u8 {
    t as u8
}

fn encode_message(w: &mut Writer, m: &SignalingMessage) {
    match m {
        SignalingMessage::HandoverCommand {
            time_s,
            from_cell,
            from_tech,
            to_cell,
            to_tech,
            kind: _,
        } => {
            w.u8(0);
            w.f64(*time_s);
            w.u32(from_cell.0);
            w.u8(tech_code(*from_tech));
            w.u32(to_cell.0);
            w.u8(tech_code(*to_tech));
            w.f64(0.0);
        }
        SignalingMessage::HandoverComplete {
            time_s,
            cell,
            interruption_ms,
        } => {
            w.u8(1);
            w.f64(*time_s);
            w.u32(cell.0);
            w.u8(0);
            w.u32(0);
            w.u8(0);
            w.f64(*interruption_ms);
        }
        SignalingMessage::ServingCell { time_s, cell, tech } => {
            w.u8(2);
            w.f64(*time_s);
            w.u32(cell.0);
            w.u8(tech_code(*tech));
            w.u32(0);
            w.u8(0);
            w.f64(0.0);
        }
    }
}

/// Decode `.drm` bytes back into a log.
pub fn decode(data: &[u8]) -> Result<XcalLog, DrmError> {
    if data.len() < 8 {
        return Err(DrmError::Truncated);
    }
    let (body, trailer) = data.split_at(data.len() - 4);
    let trailer: [u8; 4] = trailer.try_into().map_err(|_| DrmError::Truncated)?;
    let stored = u32::from_le_bytes(trailer);
    if crc32(body) != stored {
        return Err(DrmError::BadChecksum);
    }
    let mut r = Reader { data: body, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(DrmError::BadMagic);
    }
    let op = op_from(r.u8()?)?;
    let file_name = r.str16()?;
    let content_start_edt = r.str16()?;
    let start_plan_s = r.f64()?;
    let n_samples = r.u32()? as usize;
    let mut samples = Vec::with_capacity(n_samples.min(1 << 20));
    for _ in 0..n_samples {
        let time_s = r.f64()?;
        let tput = r.f32()?;
        let tech = tech_from(r.u8()?)?;
        let cell = CellId(r.u32()?);
        let rsrp_dbm = r.f32()?;
        let sinr_db = r.f32()?;
        let mcs = r.u8()?;
        let bler = r.f32()?;
        let ca = r.u8()?;
        let hos = r.u8()?;
        let speed_mps = r.f32()?;
        let odometer_m = r.f64()?;
        let region = *wheels_geo::region::RegionKind::ALL
            .get(r.u8()? as usize)
            .ok_or(DrmError::Truncated)?;
        let timezone = *wheels_geo::timezone::Timezone::ALL
            .get(r.u8()? as usize)
            .ok_or(DrmError::Truncated)?;
        let in_handover = r.u8()? != 0;
        samples.push(KpiSample {
            time_s,
            tput_mbps: if tput.is_nan() { None } else { Some(tput) },
            tech,
            cell,
            rsrp_dbm,
            sinr_db,
            mcs,
            bler,
            ca,
            handovers_in_window: hos,
            speed_mps,
            odometer_m,
            region,
            timezone,
            in_handover,
        });
    }
    let n_messages = r.u32()? as usize;
    let mut messages = Vec::with_capacity(n_messages.min(1 << 20));
    for _ in 0..n_messages {
        messages.push(decode_message(&mut r)?);
    }
    Ok(XcalLog {
        file_name,
        content_start_edt,
        op,
        start_plan_s,
        samples,
        messages,
    })
}

fn decode_message(r: &mut Reader<'_>) -> Result<SignalingMessage, DrmError> {
    let tag = r.u8()?;
    let time_s = r.f64()?;
    let cell_a = CellId(r.u32()?);
    let tech_a = r.u8()?;
    let cell_b = CellId(r.u32()?);
    let tech_b = r.u8()?;
    let f = r.f64()?;
    match tag {
        0 => {
            let from_tech = tech_from(tech_a)?;
            let to_tech = tech_from(tech_b)?;
            Ok(SignalingMessage::HandoverCommand {
                time_s,
                from_cell: cell_a,
                from_tech,
                to_cell: cell_b,
                to_tech,
                kind: wheels_ran::handover::HandoverKind::classify(from_tech, to_tech),
            })
        }
        1 => Ok(SignalingMessage::HandoverComplete {
            time_s,
            cell: cell_a,
            interruption_ms: f,
        }),
        2 => Ok(SignalingMessage::ServingCell {
            time_s,
            cell: cell_a,
            tech: tech_from(tech_a)?,
        }),
        other => Err(DrmError::BadMessageTag(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logger::XcalLogger;
    use wheels_geo::region::RegionKind;
    use wheels_geo::timezone::Timezone;
    use wheels_ran::handover::{HandoverEvent, HandoverKind};

    fn sample(t: f64, tput: Option<f32>) -> KpiSample {
        KpiSample {
            time_s: t,
            tput_mbps: tput,
            tech: Technology::Nr5gMid,
            cell: CellId(777),
            rsrp_dbm: -93.5,
            sinr_db: 11.25,
            mcs: 17,
            bler: 0.085,
            ca: 2,
            handovers_in_window: 1,
            speed_mps: 28.5,
            odometer_m: 123_456.75,
            region: RegionKind::Suburban,
            timezone: Timezone::Central,
            in_handover: false,
        }
    }

    fn make_log() -> XcalLog {
        let mut l = XcalLogger::start(Operator::TMobile, "DL", 12_345.0);
        l.log_sample(sample(12_345.5, Some(42.5)));
        l.log_sample(sample(12_346.0, None));
        l.log_handover(&HandoverEvent {
            time_s: 12_346.2,
            from: (CellId(777), Technology::Nr5gMid),
            to: (CellId(778), Technology::LteA),
            duration_ms: 61.5,
            kind: HandoverKind::Down5gTo4g,
        });
        l.finish(Timezone::Central)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let log = make_log();
        let bytes = encode(&log);
        let back = decode(&bytes).unwrap();
        assert_eq!(back.op, log.op);
        assert_eq!(back.file_name, log.file_name);
        assert_eq!(back.content_start_edt, log.content_start_edt);
        assert_eq!(back.start_plan_s, log.start_plan_s);
        assert_eq!(back.samples.len(), 2);
        assert_eq!(back.samples[0].tput_mbps, Some(42.5));
        assert_eq!(back.samples[1].tput_mbps, None);
        assert_eq!(back.samples[0].cell, CellId(777));
        assert_eq!(back.samples[0].odometer_m, 123_456.75);
        assert_eq!(back.messages.len(), 2);
        assert_eq!(back.messages[0].time_s(), 12_346.2);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode(&make_log());
        bytes[0] = b'X';
        // Fix the checksum so only the magic is wrong.
        let n = bytes.len();
        let crc = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode(&bytes).unwrap_err(), DrmError::BadMagic);
    }

    #[test]
    fn corruption_caught_by_checksum() {
        let mut bytes = encode(&make_log());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert_eq!(decode(&bytes).unwrap_err(), DrmError::BadChecksum);
    }

    #[test]
    fn truncation_rejected() {
        let bytes = encode(&make_log());
        assert_eq!(decode(&bytes[..6]).unwrap_err(), DrmError::Truncated);
        // Truncation inside the body also breaks the checksum.
        assert!(decode(&bytes[..bytes.len() - 10]).is_err());
    }

    #[test]
    fn empty_log_roundtrips() {
        let log = XcalLogger::start(Operator::Att, "RTT", 0.0).finish(Timezone::Pacific);
        let back = decode(&encode(&log)).unwrap();
        assert!(back.samples.is_empty());
        assert!(back.messages.is_empty());
    }

    #[test]
    fn codes_are_all_positions() {
        for (i, &t) in Technology::ALL.iter().enumerate() {
            assert_eq!(usize::from(tech_code(t)), i);
        }
        for (i, &r) in wheels_geo::region::RegionKind::ALL.iter().enumerate() {
            assert_eq!(usize::from(region_code(r)), i);
        }
        for (i, &z) in Timezone::ALL.iter().enumerate() {
            assert_eq!(usize::from(tz_code(z)), i);
        }
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32("123456789") = 0xCBF43926 (IEEE).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
