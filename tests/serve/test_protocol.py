"""The wire protocol: request validation and the status mapping."""

import pytest

from repro.serve.protocol import (
    ANALYZE_OPTION_FIELDS,
    HTTP_STATUS,
    OPS,
    PROTOCOL,
    ProtocolError,
    invalid,
    rejected,
    response,
    validate_request,
)

PROGRAM = "for i := 1 to 10 do {\n  a(i) := a(i-1)\n}\n"


def test_minimal_analyze_request_normalizes():
    request = validate_request({"op": "analyze", "program": PROGRAM})
    assert request["op"] == "analyze"
    assert request["program"] == PROGRAM
    assert request["name"] == "request"
    assert request["request_id"] is None
    assert request["deadline_ms"] is None
    assert request["options"] == {}


def test_query_needs_a_pair():
    with pytest.raises(ProtocolError, match="pair"):
        validate_request({"op": "query", "program": PROGRAM})
    request = validate_request(
        {"op": "query", "program": PROGRAM, "pair": ["a(i)", "a(i-1)"]}
    )
    assert request["pair"] == ("a(i)", "a(i-1)")


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ("not a dict", "JSON object"),
        ({}, "unknown op"),
        ({"op": "reboot"}, "unknown op"),
        ({"op": "analyze"}, "program"),
        ({"op": "analyze", "program": "   "}, "program"),
        ({"op": "analyze", "program": PROGRAM, "request_id": 7}, "request_id"),
        ({"op": "analyze", "program": PROGRAM, "name": 3}, "name"),
        (
            {"op": "analyze", "program": PROGRAM, "deadline_ms": -5},
            "deadline_ms",
        ),
        (
            {"op": "analyze", "program": PROGRAM, "deadline_ms": "soon"},
            "deadline_ms",
        ),
        (
            {"op": "analyze", "program": PROGRAM, "options": ["audit"]},
            "JSON object",
        ),
        (
            {"op": "analyze", "program": PROGRAM, "options": {"workers": 4}},
            "unknown option",
        ),
        (
            {"op": "analyze", "program": PROGRAM, "options": {"audit": 1}},
            "boolean",
        ),
        (
            {
                "op": "analyze",
                "program": PROGRAM,
                "options": {"assertions": "n <= m"},
            },
            "list of strings",
        ),
        ({"op": "query", "program": PROGRAM, "pair": ["one"]}, "pair"),
    ],
)
def test_malformed_requests_raise_protocol_errors(payload, fragment):
    with pytest.raises(ProtocolError, match=fragment):
        validate_request(payload)


def test_execution_configuration_is_not_a_request_option():
    # The degradation policy and execution layout belong to the server;
    # a client must not be able to switch the service to a raise policy
    # (which would 500) or resize its caches.
    for forbidden in ("workers", "backend", "policy", "deadline_ms", "cache"):
        assert forbidden not in ANALYZE_OPTION_FIELDS


def test_option_flags_and_assertions_pass_through():
    request = validate_request(
        {
            "op": "analyze",
            "program": PROGRAM,
            "options": {"audit": True, "assertions": ["n <= m"]},
            "deadline_ms": 250,
        }
    )
    assert request["options"] == {"audit": True, "assertions": ["n <= m"]}
    assert request["deadline_ms"] == 250


def test_every_status_has_an_http_mapping():
    assert set(HTTP_STATUS) == {"ok", "degraded", "error", "invalid", "rejected"}
    # Degrade-don't-die on the wire: analysis outcomes are never 5xx.
    assert HTTP_STATUS["ok"] == HTTP_STATUS["degraded"] == 200
    assert HTTP_STATUS["error"] == 200
    assert HTTP_STATUS["invalid"] == 400
    assert HTTP_STATUS["rejected"] == 429


def test_envelope_builders_tag_the_schema():
    assert response("ok", "r1")["schema"] == PROTOCOL
    shed = rejected("r2", "overloaded", 125.0)
    assert shed["status"] == "rejected"
    assert shed["retry_after_ms"] == 125.0
    bad = invalid(None, "nope")
    assert bad["status"] == "invalid"
    assert bad["error"] == "nope"


def test_ops_are_closed():
    assert set(OPS) == {"ping", "stats", "analyze", "query", "drain"}
