"""Typed client-side connection errors.

Transport failures — refused connects, mid-request EOF — must surface
as :class:`ClientConnectionError` (code ``"connection"``), never as a
raw ``OSError`` traceback, and the ``mindist call`` front end must turn
them into a clean message with exit code 2.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.cli import main
from repro.service import (
    BadRequestError,
    ClientConnectionError,
    ServiceClient,
    ServiceError,
)
from repro.service.client import _unwrap
from repro.service.protocol import E_BAD_REQUEST, E_CONNECTION


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture
def eof_server():
    """Accepts one connection, reads one line, then slams it shut."""
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def _serve() -> None:
        conn, _ = listener.accept()
        with conn:
            conn.recv(4096)  # swallow the request, answer nothing

    thread = threading.Thread(target=_serve, daemon=True)
    thread.start()
    try:
        yield port
    finally:
        listener.close()
        thread.join(timeout=5)


class TestTypedConnectionErrors:
    def test_refused_connect_raises_typed_error(self):
        port = free_port()
        with pytest.raises(ClientConnectionError) as info:
            ServiceClient("127.0.0.1", port, connect_timeout_s=2.0)
        assert info.value.code == E_CONNECTION
        assert str(port) in str(info.value)

    def test_typed_error_is_both_service_and_connection_error(self):
        assert issubclass(ClientConnectionError, ServiceError)
        assert issubclass(ClientConnectionError, ConnectionError)

    def test_mid_request_eof_raises_typed_error(self, eof_server):
        client = ServiceClient("127.0.0.1", eof_server, io_timeout_s=5.0)
        with client:
            with pytest.raises(ClientConnectionError) as info:
                client.call("stats")
        assert info.value.code == E_CONNECTION
        assert "closed the connection" in str(info.value)

    def test_connection_error_never_crosses_the_wire(self):
        from repro.service.protocol import _ERROR_TYPES, error_from_wire

        assert E_CONNECTION not in _ERROR_TYPES
        # A server hypothetically echoing the code still decodes safely.
        err = error_from_wire({"code": E_CONNECTION, "message": "?"})
        assert isinstance(err, ServiceError)
        assert not isinstance(err, ClientConnectionError)


class TestCallCommand:
    def test_refused_connect_exits_2_without_traceback(self, capsys):
        port = free_port()
        assert main(["call", "stats", "--port", str(port)]) == 2
        err = capsys.readouterr().err
        assert "error [connection]:" in err
        assert "Traceback" not in err

    def test_mid_request_eof_exits_2_without_traceback(self, eof_server, capsys):
        assert main(["call", "stats", "--port", str(eof_server)]) == 2
        err = capsys.readouterr().err
        assert "error [connection]:" in err
        assert "Traceback" not in err


class TestUnpipelinedAnswers:
    """A null-id error answers an unpipelined call; any other id
    mismatch stays a connection error."""

    ERROR = {"code": E_BAD_REQUEST, "message": "request line too long"}

    def test_null_id_error_raises_the_servers_typed_error(self):
        with pytest.raises(BadRequestError, match="too long"):
            _unwrap({"id": None, "ok": False, "error": self.ERROR}, expected_id=1)

    def test_wrong_non_null_id_is_still_a_mismatch(self):
        with pytest.raises(ClientConnectionError, match="does not match"):
            _unwrap({"id": 2, "ok": False, "error": self.ERROR}, expected_id=1)

    def test_null_id_success_is_still_a_mismatch(self):
        with pytest.raises(ClientConnectionError, match="does not match"):
            _unwrap({"id": None, "ok": True, "result": {}}, expected_id=1)
