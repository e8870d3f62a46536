"""Analysis fixture: every lifecycle rule fires at least once.

Never imported — parsed by ``tools.analysis`` self-tests only.
"""

from multiprocessing.shared_memory import SharedMemory


def leaky_create(nbytes):
    shm = SharedMemory(create=True, size=nbytes)  # LIFE001: no close/unlink
    return shm.name


def leaky_attach(name):
    shm = SharedMemory(name=name)  # LIFE002: no close
    return bytes(shm.buf[:4])

