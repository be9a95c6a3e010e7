/// Registry fixture: `MOV-01` is deliberately left uncross-referenced;
/// `ISO-01` is fully wired so only the dead `ISO-02` doc section fires.
pub enum InvariantId {
    ScheduleRoundCount,
    MoveTiling,
    IsoDsgAcyclic,
}

impl InvariantId {
    pub fn code(self) -> &'static str {
        match self {
            InvariantId::ScheduleRoundCount => "SCH-01",
            InvariantId::MoveTiling => "MOV-01",
            InvariantId::IsoDsgAcyclic => "ISO-01",
        }
    }
}

/// `SCH-01` is registered above, so listing it here is a reuse.
pub const RETIRED_CODES: [&str; 1] = ["SCH-01"];
