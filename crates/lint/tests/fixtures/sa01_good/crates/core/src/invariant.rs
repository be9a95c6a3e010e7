/// Registry fixture: every code is cross-referenced, partly via range
/// shorthand and partly via variant names; the retired `MOV-02` keeps its
/// doc entry.
pub const RETIRED_CODES: [&str; 1] = ["MOV-02"];

pub enum InvariantId {
    ScheduleRoundCount,
    ScheduleRoundStructure,
    MoveTiling,
    IsoDsgAcyclic,
    IsoReadCommitOrder,
    ProvLedgerConservation,
    ProvDecisionCausality,
    ProvForecastBookkeeping,
}

impl InvariantId {
    pub fn code(self) -> &'static str {
        match self {
            InvariantId::ScheduleRoundCount => "SCH-01",
            InvariantId::ScheduleRoundStructure => "SCH-02",
            InvariantId::MoveTiling => "MOV-01",
            InvariantId::IsoDsgAcyclic => "ISO-01",
            InvariantId::IsoReadCommitOrder => "ISO-02",
            InvariantId::ProvLedgerConservation => "PRV-01",
            InvariantId::ProvDecisionCausality => "PRV-02",
            InvariantId::ProvForecastBookkeeping => "PRV-03",
        }
    }
}
